//! Store-and-reboot update agent: the mcumgr and LwM2M baselines.
//!
//! MCU Manager (mcumgr) is the state-of-the-art push tool the paper
//! compares against (Fig. 7c): it uploads an image over BLE or a serial
//! shell. LwM2M's firmware-update object is the pull mechanism (Fig. 7b):
//! the device downloads the image over CoAP. Both agents behave alike,
//! and this module reproduces that shared behaviour:
//!
//! * **No verification in the agent** — any image whose header parses is
//!   written to flash and handed to the bootloader; integrity,
//!   authenticity and version checks all happen in mcuboot after a reboot.
//! * **Freshness at most from transport security** — mcumgr has none.
//!   LwM2M relies on an end-to-end DTLS session between device and server;
//!   when a gateway or proxy terminates that session (the common
//!   smartphone / border-router deployment), replay protection
//!   evaporates. The [`UnverifiedAgent::secure_channel_end_to_end`] flag
//!   models exactly this, and mcumgr is `UnverifiedAgent::new(slot, false)`.

use upkit_core::image::{write_manifest, FIRMWARE_OFFSET};
use upkit_flash::{LayoutError, MemoryLayout, SlotId};
use upkit_manifest::{ManifestError, SignedManifest, SIGNED_MANIFEST_LEN};

/// Errors from the store-and-reboot agent — note the absence of any
/// verification-related variant.
#[derive(Debug)]
#[non_exhaustive]
pub enum UnverifiedError {
    /// Flash failure.
    Layout(LayoutError),
    /// Image header unparseable (framing only, not authenticity).
    Framing(ManifestError),
    /// The transfer exceeded the declared image length.
    TooMuchData,
    /// An operation happened in the wrong transfer state.
    WrongState,
    /// The session was replayed/hijacked and end-to-end security is on:
    /// the DTLS layer (simulated) detects non-fresh traffic.
    TransportReplayDetected,
}

impl core::fmt::Display for UnverifiedError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Layout(e) => write!(f, "flash error: {e}"),
            Self::Framing(e) => write!(f, "image framing error: {e}"),
            Self::TooMuchData => f.write_str("transfer exceeded declared length"),
            Self::WrongState => f.write_str("operation invalid in current transfer state"),
            Self::TransportReplayDetected => f.write_str("DTLS session rejected replayed traffic"),
        }
    }
}

impl std::error::Error for UnverifiedError {}

impl From<LayoutError> for UnverifiedError {
    fn from(e: LayoutError) -> Self {
        Self::Layout(e)
    }
}

#[derive(Debug, PartialEq, Eq)]
enum TransferState {
    Idle,
    Header,
    /// The header is stored; `remaining` payload bytes are still due.
    Body {
        remaining: u32,
    },
    Done,
}

/// The store-and-reboot agent: stores whatever arrives, checks nothing.
#[derive(Debug)]
pub struct UnverifiedAgent {
    target: SlotId,
    state: TransferState,
    header_buf: Vec<u8>,
    write_pos: u32,
    /// Whether the DTLS session reaches the update server end to end
    /// (true only when no gateway/proxy terminates it; mcumgr has no
    /// such session at all).
    pub secure_channel_end_to_end: bool,
}

impl UnverifiedAgent {
    /// Creates an idle agent targeting `slot`.
    #[must_use]
    pub fn new(target: SlotId, secure_channel_end_to_end: bool) -> Self {
        Self {
            target,
            state: TransferState::Idle,
            header_buf: Vec::with_capacity(SIGNED_MANIFEST_LEN),
            write_pos: 0,
            secure_channel_end_to_end,
        }
    }

    /// Starts a transfer by erasing the slot (mcumgr's `image erase`,
    /// LwM2M's `/5/0/1` write).
    pub fn begin(&mut self, layout: &mut MemoryLayout) -> Result<(), UnverifiedError> {
        layout.erase_slot(self.target)?;
        self.state = TransferState::Header;
        self.header_buf.clear();
        self.write_pos = FIRMWARE_OFFSET;
        Ok(())
    }

    /// Accepts transferred chunks. Everything parseable is stored — no
    /// signature, nonce, version, or digest check happens here.
    ///
    /// `fresh_session` tells the simulated DTLS layer whether these bytes
    /// come from a live server session (`true`) or are replayed by an
    /// intermediary (`false`). With an end-to-end channel, replays are
    /// caught; without one they are indistinguishable.
    pub fn push_data(
        &mut self,
        layout: &mut MemoryLayout,
        mut chunk: &[u8],
        fresh_session: bool,
    ) -> Result<bool, UnverifiedError> {
        if self.secure_channel_end_to_end && !fresh_session {
            return Err(UnverifiedError::TransportReplayDetected);
        }
        while !chunk.is_empty() {
            match self.state {
                TransferState::Header => {
                    let need = SIGNED_MANIFEST_LEN - self.header_buf.len();
                    let take = need.min(chunk.len());
                    self.header_buf.extend_from_slice(&chunk[..take]);
                    chunk = &chunk[take..];
                    if self.header_buf.len() == SIGNED_MANIFEST_LEN {
                        let manifest = SignedManifest::from_bytes(&self.header_buf)
                            .map_err(UnverifiedError::Framing)?;
                        write_manifest(layout, self.target, &manifest)?;
                        self.state = TransferState::Body {
                            remaining: manifest.manifest.payload_size,
                        };
                    }
                }
                TransferState::Body { remaining } => {
                    if remaining == 0 {
                        return Err(UnverifiedError::TooMuchData);
                    }
                    let take = chunk.len().min(remaining as usize);
                    layout.write_slot(self.target, self.write_pos, &chunk[..take])?;
                    self.write_pos += take as u32;
                    chunk = &chunk[take..];
                    let remaining = remaining - take as u32;
                    self.state = TransferState::Body { remaining };
                    if remaining == 0 {
                        if !chunk.is_empty() {
                            return Err(UnverifiedError::TooMuchData);
                        }
                        self.state = TransferState::Done;
                        return Ok(true);
                    }
                }
                TransferState::Idle | TransferState::Done => {
                    return Err(UnverifiedError::WrongState)
                }
            }
        }
        Ok(self.state == TransferState::Done)
    }

    /// Whether the transfer finished (the device then reboots; all
    /// verification happens in the bootloader).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.state == TransferState::Done
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use upkit_core::generation::{UpdateServer, VendorServer};
    use upkit_crypto::ecdsa::SigningKey;
    use upkit_flash::{configuration_a, standard, FlashGeometry, SimFlash};
    use upkit_manifest::{DeviceToken, Version};

    pub(crate) fn layout() -> MemoryLayout {
        configuration_a(
            Box::new(SimFlash::new(FlashGeometry {
                size: 4096 * 64,
                sector_size: 4096,
                read_micros_per_byte: 0,
                write_micros_per_byte: 0,
                erase_micros_per_sector: 0,
            })),
            4096 * 16,
        )
        .unwrap()
    }

    /// A serialized v2 update image for device 1 from a fresh server.
    pub(crate) fn image(seed: u64, fw: Vec<u8>, nonce: u32) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let vendor = VendorServer::new(SigningKey::generate(&mut rng));
        let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
        server.publish(vendor.release(fw, Version(2), 0, 0xA));
        server
            .prepare_update(&DeviceToken {
                device_id: 1,
                nonce,
                current_version: Version(0),
            })
            .unwrap()
            .image
            .to_bytes()
    }

    #[test]
    fn stores_uploaded_image() {
        let mut layout = layout();
        let fw = vec![0x5A; 10_000];
        let wire = image(160, fw.clone(), 1);
        let mut agent = UnverifiedAgent::new(standard::SLOT_B, false);
        agent.begin(&mut layout).unwrap();
        let mut done = false;
        for chunk in wire.chunks(300) {
            done = agent.push_data(&mut layout, chunk, true).unwrap();
        }
        assert!(done);
        let mut stored = vec![0u8; fw.len()];
        layout
            .read_slot(standard::SLOT_B, FIRMWARE_OFFSET, &mut stored)
            .unwrap();
        assert_eq!(stored, fw);
    }

    #[test]
    fn accepts_tampered_firmware_without_complaint() {
        // The vulnerability UpKit's agent-side verification fixes: the
        // agent happily stores corrupt firmware; the device will reboot
        // for nothing.
        let mut layout = layout();
        let mut wire = image(161, vec![0x5A; 5_000], 1);
        let len = wire.len();
        wire[len - 10] ^= 0xFF;
        let mut agent = UnverifiedAgent::new(standard::SLOT_B, false);
        agent.begin(&mut layout).unwrap();
        let mut done = false;
        for chunk in wire.chunks(300) {
            done = agent.push_data(&mut layout, chunk, true).unwrap();
        }
        assert!(done, "tampered image accepted by the agent");
    }

    #[test]
    fn accepts_replay_without_an_end_to_end_channel() {
        // A replayed (old-nonce) image is indistinguishable to mcumgr, and
        // to an LwM2M device whose DTLS session a proxy terminates.
        let mut layout = layout();
        let replayed = image(162, vec![0x11; 2_000], 42);
        let mut agent = UnverifiedAgent::new(standard::SLOT_B, false);
        agent.begin(&mut layout).unwrap();
        let mut done = false;
        for chunk in replayed.chunks(100) {
            done = agent.push_data(&mut layout, chunk, false).unwrap();
        }
        assert!(done, "replay accepted: no freshness mechanism");
    }

    #[test]
    fn end_to_end_dtls_catches_replay() {
        let mut layout = layout();
        let wire = image(181, vec![0xBB; 1_000], 1);
        let mut agent = UnverifiedAgent::new(standard::SLOT_B, true);
        agent.begin(&mut layout).unwrap();
        assert!(matches!(
            agent.push_data(&mut layout, &wire[..64], false),
            Err(UnverifiedError::TransportReplayDetected)
        ));
    }

    #[test]
    fn rejects_overflow_and_wrong_state() {
        let mut layout = layout();
        let wire = image(163, vec![0x11; 500], 1);
        let mut agent = UnverifiedAgent::new(standard::SLOT_B, false);
        assert!(matches!(
            agent.push_data(&mut layout, &wire, true),
            Err(UnverifiedError::WrongState)
        ));
        agent.begin(&mut layout).unwrap();
        let mut extended = wire.clone();
        extended.push(0);
        let mut result = Ok(false);
        for chunk in extended.chunks(256) {
            result = agent.push_data(&mut layout, chunk, true);
            if result.is_err() {
                break;
            }
        }
        assert!(matches!(result, Err(UnverifiedError::TooMuchData)));
    }
}
