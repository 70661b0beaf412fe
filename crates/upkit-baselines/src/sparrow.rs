//! Sparrow-like update agent: CRC-only "verification".
//!
//! Sparrow (Contiki) and Deluge (TinyOS) verify only a CRC over the
//! received image — enough against random corruption, worthless against
//! tampering, since anyone can recompute a keyless checksum. The paper
//! cites both as examples of incomplete update security (Sect. II, VII);
//! this agent exists so the security experiments can show a forged image
//! sailing through a CRC check that UpKit's verifier rejects.

use upkit_flash::{LayoutError, MemoryLayout, SlotId};

use crate::crc::crc16_ccitt;

/// Wire format: `len u32 ‖ crc16 u16 ‖ firmware` — a minimal
/// Sparrow/Deluge-style framing with a CRC trailer in the header.
pub const HEADER_LEN: usize = 4 + 2;

/// Errors from the Sparrow-like agent.
#[derive(Debug)]
#[non_exhaustive]
pub enum SparrowError {
    /// Flash failure.
    Layout(LayoutError),
    /// The CRC over the received image does not match the header.
    CrcMismatch,
    /// More data than the header declared.
    TooMuchData,
    /// Operation in the wrong state.
    WrongState,
}

impl core::fmt::Display for SparrowError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Layout(e) => write!(f, "flash error: {e}"),
            Self::CrcMismatch => f.write_str("image CRC mismatch"),
            Self::TooMuchData => f.write_str("image exceeded declared length"),
            Self::WrongState => f.write_str("operation invalid in current state"),
        }
    }
}

impl std::error::Error for SparrowError {}

impl From<LayoutError> for SparrowError {
    fn from(e: LayoutError) -> Self {
        Self::Layout(e)
    }
}

/// Builds the Sparrow wire image for `firmware` (the sender side).
#[must_use]
pub fn encode_image(firmware: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + firmware.len());
    out.extend_from_slice(&(firmware.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc16_ccitt(firmware).to_le_bytes());
    out.extend_from_slice(firmware);
    out
}

#[derive(Debug, PartialEq, Eq)]
enum State {
    Idle,
    Header,
    Body,
    Done,
}

/// The CRC-only agent.
#[derive(Debug)]
pub struct SparrowAgent {
    target: SlotId,
    state: State,
    header: Vec<u8>,
    expected_len: u32,
    expected_crc: u16,
    received: u32,
    crc_state: Vec<u8>,
    write_pos: u32,
}

impl SparrowAgent {
    /// Creates an idle agent targeting `slot`.
    #[must_use]
    pub fn new(target: SlotId) -> Self {
        Self {
            target,
            state: State::Idle,
            header: Vec::with_capacity(HEADER_LEN),
            expected_len: 0,
            expected_crc: 0,
            received: 0,
            crc_state: Vec::new(),
            write_pos: 0,
        }
    }

    /// Starts a reception.
    pub fn begin(&mut self, layout: &mut MemoryLayout) -> Result<(), SparrowError> {
        layout.erase_slot(self.target)?;
        self.state = State::Header;
        self.header.clear();
        self.crc_state.clear();
        self.received = 0;
        self.write_pos = 0;
        Ok(())
    }

    /// Accepts chunks; on the final one, checks the CRC.
    pub fn push_data(
        &mut self,
        layout: &mut MemoryLayout,
        mut chunk: &[u8],
    ) -> Result<bool, SparrowError> {
        while !chunk.is_empty() {
            match self.state {
                State::Header => {
                    let need = HEADER_LEN - self.header.len();
                    let take = need.min(chunk.len());
                    self.header.extend_from_slice(&chunk[..take]);
                    chunk = &chunk[take..];
                    if let [l0, l1, l2, l3, c0, c1] = self.header[..] {
                        self.expected_len = u32::from_le_bytes([l0, l1, l2, l3]);
                        self.expected_crc = u16::from_le_bytes([c0, c1]);
                        self.state = State::Body;
                    }
                }
                State::Body => {
                    let remaining = self.expected_len - self.received;
                    if remaining == 0 {
                        return Err(SparrowError::TooMuchData);
                    }
                    let take = (remaining as usize).min(chunk.len());
                    layout.write_slot(self.target, self.write_pos, &chunk[..take])?;
                    self.crc_state.extend_from_slice(&chunk[..take]);
                    self.write_pos += take as u32;
                    self.received += take as u32;
                    chunk = &chunk[take..];
                    if self.received == self.expected_len {
                        if !chunk.is_empty() {
                            return Err(SparrowError::TooMuchData);
                        }
                        if crc16_ccitt(&self.crc_state) != self.expected_crc {
                            return Err(SparrowError::CrcMismatch);
                        }
                        self.state = State::Done;
                        return Ok(true);
                    }
                }
                State::Idle | State::Done => return Err(SparrowError::WrongState),
            }
        }
        Ok(self.state == State::Done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upkit_flash::{configuration_b, standard, FlashGeometry, SimFlash};

    fn layout() -> MemoryLayout {
        configuration_b(
            Box::new(SimFlash::new(FlashGeometry::untimed(4096 * 16, 4096))),
            None,
            4096 * 4,
        )
        .unwrap()
    }

    #[test]
    fn accepts_valid_crc_image() {
        let mut layout = layout();
        let wire = encode_image(b"honest firmware bytes");
        let mut agent = SparrowAgent::new(standard::SLOT_B);
        agent.begin(&mut layout).unwrap();
        let mut done = false;
        for chunk in wire.chunks(7) {
            done = agent.push_data(&mut layout, chunk).unwrap();
        }
        assert!(done);
    }

    #[test]
    fn detects_accidental_corruption() {
        let mut layout = layout();
        let mut wire = encode_image(b"honest firmware bytes");
        let len = wire.len();
        wire[len - 2] ^= 0x10; // corruption after CRC computation
        let mut agent = SparrowAgent::new(standard::SLOT_B);
        agent.begin(&mut layout).unwrap();
        let mut result = Ok(false);
        for chunk in wire.chunks(7) {
            result = agent.push_data(&mut layout, chunk);
            if result.is_err() {
                break;
            }
        }
        assert!(matches!(result, Err(SparrowError::CrcMismatch)));
    }

    #[test]
    fn tampering_with_recomputed_crc_sails_through() {
        // The attack CRC cannot stop: the attacker swaps the firmware AND
        // recomputes the checksum. Sparrow accepts; UpKit's signature
        // verification would reject.
        let mut layout = layout();
        let forged = encode_image(b"malicious firmware!");
        let mut agent = SparrowAgent::new(standard::SLOT_B);
        agent.begin(&mut layout).unwrap();
        let mut done = false;
        for chunk in forged.chunks(16) {
            done = agent.push_data(&mut layout, chunk).unwrap();
        }
        assert!(done, "forged image accepted: CRC is not a security check");
    }

    #[test]
    fn state_guards() {
        let mut layout = layout();
        let mut agent = SparrowAgent::new(standard::SLOT_B);
        assert!(matches!(
            agent.push_data(&mut layout, b"xx"),
            Err(SparrowError::WrongState)
        ));
        agent.begin(&mut layout).unwrap();
        let mut wire = encode_image(b"fw");
        wire.push(0);
        let mut result = Ok(false);
        for chunk in wire.chunks(3) {
            result = agent.push_data(&mut layout, chunk);
            if result.is_err() {
                break;
            }
        }
        assert!(matches!(result, Err(SparrowError::TooMuchData)));
    }
}
