//! The update agent: UpKit's on-device FSM (Sect. IV-B, Fig. 4).
//!
//! The agent is transport-agnostic: whether bytes arrive over a BLE push
//! connection or CoAP pull responses, the network code simply feeds them to
//! [`UpdateAgent::push_data`] and the FSM routes them through verification
//! and the pipeline. The eight states of the paper's Fig. 4 are modeled
//! explicitly:
//!
//! ```text
//! Waiting → StartUpdate → ReceiveManifest → VerifyManifest
//!        → ReceiveFirmware → VerifyFirmware → (Reboot)
//!                         ↘ Cleaning (on any failure)
//! ```
//!
//! The two verification states are where UpKit departs from mcumgr/LwM2M:
//! an invalid manifest stops the update **before** a single firmware byte
//! is transferred, and an invalid firmware stops it **before** the reboot —
//! the early-rejection property evaluated in the paper's security analysis.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use alloc::sync::Arc;
use alloc::vec::Vec;

use upkit_crypto::backend::SecurityBackend;
use upkit_flash::{LayoutError, MemoryLayout, SlotId};
use upkit_manifest::{DeviceToken, Manifest, SignedManifest, Version, SIGNED_MANIFEST_LEN};
use upkit_trace::{Counters, Event};

use crate::image::write_manifest;
use crate::keys::TrustAnchors;
use crate::pipeline::{Pipeline, PipelineError};
use crate::verifier::{FirmwareDigester, Verifier, VerifyContext, VerifyError};

/// The FSM states (Fig. 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AgentState {
    /// Idle; no update session in progress.
    Waiting,
    /// Token issued; erasing the target slot.
    StartUpdate,
    /// Accumulating signed-manifest bytes.
    ReceiveManifest,
    /// Manifest complete; verification in progress.
    VerifyManifest,
    /// Accumulating payload bytes through the pipeline.
    ReceiveFirmware,
    /// Payload complete; firmware digest verification in progress.
    VerifyFirmware,
    /// Verified update stored; the device may reboot to apply it.
    ReadyToReboot,
    /// A failure occurred; session state must be cleaned before reuse.
    Cleaning,
}

impl AgentState {
    /// Stable lowercase name for trace output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Waiting => "waiting",
            Self::StartUpdate => "start_update",
            Self::ReceiveManifest => "receive_manifest",
            Self::VerifyManifest => "verify_manifest",
            Self::ReceiveFirmware => "receive_firmware",
            Self::VerifyFirmware => "verify_firmware",
            Self::ReadyToReboot => "ready_to_reboot",
            Self::Cleaning => "cleaning",
        }
    }
}

/// Device-constant agent configuration.
#[derive(Clone, Debug)]
pub struct AgentConfig {
    /// This device's unique 32-bit identifier.
    pub device_id: u32,
    /// Application/hardware identifier of the firmware this device runs.
    pub app_id: u32,
    /// Whether the differential pipeline stages are compiled in.
    pub supports_differential: bool,
    /// Content-confidentiality key. When set, every update payload is
    /// expected to be ChaCha20-encrypted under this key (the paper's
    /// future-work pipeline decryption stage); unencrypted payloads then
    /// fail the firmware digest check.
    pub content_key: Option<[u8; upkit_crypto::chacha20::KEY_LEN]>,
}

impl AgentConfig {
    /// Configuration without content confidentiality.
    #[must_use]
    pub fn new(device_id: u32, app_id: u32, supports_differential: bool) -> Self {
        Self {
            device_id,
            app_id,
            supports_differential,
            content_key: None,
        }
    }
}

/// Per-update slot plan: where the current image lives and where the new
/// one goes. Chosen by the device integration before each update (the
/// paper's *Start update* state erases "the memory slot containing the
/// oldest firmware").
#[derive(Clone, Debug)]
pub struct UpdatePlan {
    /// Slot that will receive the new image.
    pub target_slot: SlotId,
    /// Slot holding the currently-running image (differential base).
    pub current_slot: SlotId,
    /// Version of the currently-running image.
    pub installed_version: Version,
    /// Size in bytes of the currently-running firmware.
    pub installed_size: u32,
    /// Link offsets acceptable for the target slot.
    pub allowed_link_offsets: Vec<u32>,
    /// Maximum firmware size the target slot can hold.
    pub max_firmware_size: u32,
}

/// What [`UpdateAgent::push_data`] reports after consuming a chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AgentPhase {
    /// More data is needed.
    NeedMore,
    /// The manifest was just verified; firmware transfer may begin.
    ///
    /// In the push flow this is the moment the agent notifies the
    /// smartphone to start sending the firmware (steps 10–11 of Fig. 2).
    ManifestAccepted,
    /// The firmware was stored and verified; the device may reboot.
    Complete,
}

/// Errors produced by the agent FSM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AgentError {
    /// An operation was invalid in the current state.
    WrongState(AgentState),
    /// Manifest or firmware verification failed.
    Verify(VerifyError),
    /// The pipeline rejected the payload.
    Pipeline(PipelineError),
    /// A flash/layout operation failed.
    Layout(LayoutError),
    /// More payload bytes arrived than the manifest declared.
    TooMuchData,
}

impl core::fmt::Display for AgentError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::WrongState(s) => write!(f, "operation invalid in agent state {s:?}"),
            Self::Verify(e) => write!(f, "verification failed: {e}"),
            Self::Pipeline(e) => write!(f, "pipeline error: {e}"),
            Self::Layout(e) => write!(f, "flash layout error: {e}"),
            Self::TooMuchData => f.write_str("payload exceeded the declared size"),
        }
    }
}

impl core::error::Error for AgentError {}

impl From<VerifyError> for AgentError {
    fn from(e: VerifyError) -> Self {
        Self::Verify(e)
    }
}

impl From<PipelineError> for AgentError {
    fn from(e: PipelineError) -> Self {
        Self::Pipeline(e)
    }
}

impl From<LayoutError> for AgentError {
    fn from(e: LayoutError) -> Self {
        Self::Layout(e)
    }
}

#[derive(Debug)]
struct Session {
    plan: UpdatePlan,
    nonce: u32,
    manifest_buf: Vec<u8>,
    accepted: Option<SignedManifest>,
    pipeline: Option<Pipeline>,
    payload_received: u64,
}

impl Session {
    /// The manifest accepted by `verify_manifest`. Its absence in a
    /// firmware-phase state is an internal invariant violation, so debug
    /// builds assert while release builds degrade to a typed error.
    fn accepted_manifest(&self, state: AgentState) -> Result<Manifest, AgentError> {
        match self.accepted.as_ref() {
            Some(signed) => Ok(signed.manifest),
            None => {
                debug_assert!(false, "agent state {state:?} requires an accepted manifest");
                Err(AgentError::WrongState(state))
            }
        }
    }

    /// The pipeline constructed alongside the accepted manifest; same
    /// invariant policy as [`Session::accepted_manifest`].
    fn pipeline_mut(&mut self, state: AgentState) -> Result<&mut Pipeline, AgentError> {
        match self.pipeline.as_mut() {
            Some(pipeline) => Ok(pipeline),
            None => {
                debug_assert!(false, "agent state {state:?} requires a pipeline");
                Err(AgentError::WrongState(state))
            }
        }
    }
}

/// A session must exist in every non-idle state; if it does not, the
/// FSM was corrupted — assert in debug builds, return a typed error in
/// release builds instead of panicking on externally triggered paths.
fn active_session(
    state: AgentState,
    session: Option<&mut Session>,
) -> Result<&mut Session, AgentError> {
    match session {
        Some(session) => Ok(session),
        None => {
            debug_assert!(false, "agent state {state:?} requires an active session");
            Err(AgentError::WrongState(state))
        }
    }
}

/// The update agent.
pub struct UpdateAgent {
    backend: Arc<dyn SecurityBackend>,
    anchors: TrustAnchors,
    config: AgentConfig,
    state: AgentState,
    session: Option<Session>,
}

impl core::fmt::Debug for UpdateAgent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("UpdateAgent")
            .field("state", &self.state)
            .field("device_id", &self.config.device_id)
            .finish_non_exhaustive()
    }
}

impl UpdateAgent {
    /// Creates an idle agent.
    #[must_use]
    pub fn new(
        backend: Arc<dyn SecurityBackend>,
        anchors: TrustAnchors,
        config: AgentConfig,
    ) -> Self {
        Self {
            backend,
            anchors,
            config,
            state: AgentState::Waiting,
            session: None,
        }
    }

    /// Current FSM state.
    #[must_use]
    pub fn state(&self) -> AgentState {
        self.state
    }

    /// Moves the FSM and emits the transition on the layout's tracer —
    /// the agent observes through whatever tracer its flash is wired to,
    /// so one `MemoryLayout::set_tracer` call captures both layers.
    fn transition(&mut self, layout: &MemoryLayout, to: AgentState) {
        let from = self.state;
        self.state = to;
        if from != to {
            let device = u64::from(self.config.device_id);
            layout.tracer().emit(|| Event::AgentTransition {
                device,
                from: from.name(),
                to: to.name(),
            });
        }
    }

    /// The manifest accepted in this session, once verified.
    #[must_use]
    pub fn accepted_manifest(&self) -> Option<&SignedManifest> {
        self.session.as_ref().and_then(|s| s.accepted.as_ref())
    }

    /// *Waiting → StartUpdate → ReceiveManifest*: issues a device token for
    /// a fresh update request and erases the target slot.
    ///
    /// `nonce` must be freshly generated per request (the device
    /// integration typically draws it from its RNG); the agent remembers it
    /// to enforce freshness during manifest verification.
    pub fn request_device_token(
        &mut self,
        layout: &mut MemoryLayout,
        plan: UpdatePlan,
        nonce: u32,
    ) -> Result<DeviceToken, AgentError> {
        if self.state != AgentState::Waiting {
            return Err(AgentError::WrongState(self.state));
        }
        self.transition(layout, AgentState::StartUpdate);
        if let Err(e) = layout.erase_slot(plan.target_slot) {
            // Stay recoverable: a failed erase returns the FSM to idle
            // instead of stranding it in StartUpdate.
            self.transition(layout, AgentState::Waiting);
            return Err(e.into());
        }
        let token = DeviceToken {
            device_id: self.config.device_id,
            nonce,
            current_version: if self.config.supports_differential {
                plan.installed_version
            } else {
                Version(0)
            },
        };
        self.session = Some(Session {
            plan,
            nonce,
            manifest_buf: Vec::with_capacity(SIGNED_MANIFEST_LEN),
            accepted: None,
            pipeline: None,
            payload_received: 0,
        });
        self.transition(layout, AgentState::ReceiveManifest);
        Ok(token)
    }

    /// Feeds received bytes (manifest first, then payload — a single chunk
    /// may span the boundary). On any error the FSM drops to
    /// [`AgentState::Cleaning`]; call [`UpdateAgent::reset`] to recover.
    pub fn push_data(
        &mut self,
        layout: &mut MemoryLayout,
        chunk: &[u8],
    ) -> Result<AgentPhase, AgentError> {
        match self.push_data_inner(layout, chunk) {
            Ok(phase) => Ok(phase),
            Err(e) => {
                // Every typed rejection is ledgered: the security tests pin
                // this counter against the forgery counter staying zero.
                Counters::add(&layout.tracer().counters().packages_rejected, 1);
                self.transition(layout, AgentState::Cleaning);
                Err(e)
            }
        }
    }

    fn push_data_inner(
        &mut self,
        layout: &mut MemoryLayout,
        mut chunk: &[u8],
    ) -> Result<AgentPhase, AgentError> {
        let mut phase = AgentPhase::NeedMore;
        while !chunk.is_empty() {
            let state = self.state;
            match state {
                AgentState::ReceiveManifest => {
                    let session = active_session(state, self.session.as_mut())?;
                    let need = SIGNED_MANIFEST_LEN - session.manifest_buf.len();
                    let take = need.min(chunk.len());
                    session.manifest_buf.extend_from_slice(&chunk[..take]);
                    chunk = &chunk[take..];
                    if session.manifest_buf.len() == SIGNED_MANIFEST_LEN {
                        self.transition(layout, AgentState::VerifyManifest);
                        self.verify_manifest(layout)?;
                        phase = AgentPhase::ManifestAccepted;
                        self.transition(layout, AgentState::ReceiveFirmware);
                    }
                }
                AgentState::ReceiveFirmware => {
                    let session = active_session(state, self.session.as_mut())?;
                    let manifest = session.accepted_manifest(state)?;
                    let remaining = u64::from(manifest.payload_size) - session.payload_received;
                    if remaining == 0 {
                        return Err(AgentError::TooMuchData);
                    }
                    let take = (remaining as usize).min(chunk.len());
                    session.pipeline_mut(state)?.push(layout, &chunk[..take])?;
                    Counters::add(&layout.tracer().counters().pipeline_bytes_in, take as u64);
                    session.payload_received += take as u64;
                    chunk = &chunk[take..];
                    if session.payload_received == u64::from(manifest.payload_size) {
                        if !chunk.is_empty() {
                            return Err(AgentError::TooMuchData);
                        }
                        self.transition(layout, AgentState::VerifyFirmware);
                        self.verify_firmware(layout)?;
                        self.transition(layout, AgentState::ReadyToReboot);
                        phase = AgentPhase::Complete;
                    }
                }
                state => return Err(AgentError::WrongState(state)),
            }
        }
        Ok(phase)
    }

    /// *VerifyManifest*: double-signature + field validation, then pipeline
    /// construction and manifest persistence.
    fn verify_manifest(&mut self, layout: &mut MemoryLayout) -> Result<(), AgentError> {
        let session = active_session(self.state, self.session.as_mut())?;
        let signed = SignedManifest::from_bytes(&session.manifest_buf)
            .map_err(|_| AgentError::Verify(VerifyError::VendorSignature))?;

        let ctx = VerifyContext {
            device_id: self.config.device_id,
            expected_nonce: Some(session.nonce),
            installed_version: session.plan.installed_version,
            supports_differential: self.config.supports_differential,
            app_id: self.config.app_id,
            allowed_link_offsets: session.plan.allowed_link_offsets.clone(),
            max_size: session.plan.max_firmware_size,
        };
        let verified =
            Verifier::new(self.backend.as_ref(), &self.anchors).verify_manifest(&signed, &ctx);
        // Each manifest carries two signatures (vendor + update server).
        Counters::add(&layout.tracer().counters().sig_verifications, 2);
        let device = u64::from(self.config.device_id);
        let ok = verified.is_ok();
        layout
            .tracer()
            .emit(|| Event::SignatureChecked { device, ok });
        verified?;

        let manifest = signed.manifest;
        let mut pipeline = if manifest.is_differential() {
            Pipeline::new_differential(
                layout,
                session.plan.target_slot,
                session.plan.current_slot,
                session.plan.installed_size,
                manifest.size,
            )?
        } else {
            Pipeline::new_full(layout, session.plan.target_slot, manifest.size)?
        };

        if let Some(key) = &self.config.content_key {
            let nonce =
                crate::keys::content_nonce(manifest.device_id, manifest.nonce, manifest.version);
            pipeline.enable_decryption(upkit_crypto::chacha20::ChaCha20::new(key, &nonce));
        }

        // Persist the manifest so the bootloader can re-verify after reboot.
        write_manifest(layout, session.plan.target_slot, &signed)?;

        session.accepted = Some(signed);
        session.pipeline = Some(pipeline);
        Ok(())
    }

    /// *VerifyFirmware*: flush the pipeline and compare the stored
    /// firmware's digest with the manifest's.
    fn verify_firmware(&mut self, layout: &mut MemoryLayout) -> Result<(), AgentError> {
        let state = self.state;
        let session = active_session(state, self.session.as_mut())?;
        let manifest = session.accepted_manifest(state)?;
        let produced = session.pipeline_mut(state)?.finish(layout)?;
        let bytes_in = session.payload_received;
        Counters::add(&layout.tracer().counters().pipeline_bytes_out, produced);
        layout.tracer().emit(|| Event::PipelineFinished {
            bytes_in,
            bytes_out: produced,
        });

        // Read the firmware back from flash: what is verified is what will
        // boot, not what happened to pass through RAM.
        let mut digester = FirmwareDigester::new();
        crate::image::read_firmware_chunks(
            layout,
            session.plan.target_slot,
            manifest.size,
            4096,
            |chunk| digester.update(chunk),
        )?;
        let computed = digester.finalize();
        Verifier::new(self.backend.as_ref(), &self.anchors)
            .verify_firmware_digest(&manifest, &computed)?;
        Ok(())
    }

    /// *Cleaning → Waiting*: invalidates the target slot (erasing its
    /// header so the bootloader can never pick up a half-written image) and
    /// reinitializes the FSM. Also usable from `ReadyToReboot` after the
    /// device integration has acted on the update.
    pub fn reset(&mut self, layout: &mut MemoryLayout) -> Result<(), AgentError> {
        if let Some(session) = self.session.take() {
            if self.state == AgentState::Cleaning {
                // Invalidate: erase the first sector (the manifest header).
                layout.erase_slot_sector(session.plan.target_slot, 0)?;
            }
        }
        self.transition(layout, AgentState::Waiting);
        Ok(())
    }

    /// Wire payload bytes received so far in this session.
    #[must_use]
    pub fn payload_received(&self) -> u64 {
        self.session.as_ref().map_or(0, |s| s.payload_received)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use upkit_crypto::backend::TinyCryptBackend;
    use upkit_crypto::ecdsa::SigningKey;
    use upkit_crypto::sha256::sha256;
    use upkit_flash::{configuration_a, standard, FlashGeometry, SimFlash};
    use upkit_manifest::{server_sign, vendor_sign, Manifest, UpdateImage};

    const SLOT_SIZE: u32 = 4096 * 16;
    const LINK_OFFSET: u32 = 0x1000;
    const APP_ID: u32 = 0xAB01;
    const DEVICE_ID: u32 = 0x11223344;

    struct Fixture {
        vendor: SigningKey,
        server: SigningKey,
        layout: MemoryLayout,
        agent: UpdateAgent,
    }

    use crate::image::FIRMWARE_OFFSET;
    use upkit_flash::MemoryLayout;

    fn fixture(seed: u64) -> Fixture {
        let mut rng = StdRng::seed_from_u64(seed);
        let vendor = SigningKey::generate(&mut rng);
        let server = SigningKey::generate(&mut rng);
        let layout = configuration_a(
            Box::new(SimFlash::new(FlashGeometry::untimed(4096 * 64, 4096))),
            SLOT_SIZE,
        )
        .unwrap();
        let agent = UpdateAgent::new(
            Arc::new(TinyCryptBackend),
            TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key()),
            AgentConfig {
                device_id: DEVICE_ID,
                app_id: APP_ID,
                supports_differential: true,
                content_key: None,
            },
        );
        Fixture {
            vendor,
            server,
            layout,
            agent,
        }
    }

    fn plan() -> UpdatePlan {
        UpdatePlan {
            target_slot: standard::SLOT_B,
            current_slot: standard::SLOT_A,
            installed_version: Version(1),
            installed_size: 0,
            allowed_link_offsets: vec![LINK_OFFSET],
            max_firmware_size: SLOT_SIZE - FIRMWARE_OFFSET,
        }
    }

    fn make_image(
        fix: &Fixture,
        token: &DeviceToken,
        firmware: &[u8],
        version: Version,
    ) -> UpdateImage {
        let manifest = Manifest {
            device_id: token.device_id,
            nonce: token.nonce,
            old_version: Version(0),
            version,
            size: firmware.len() as u32,
            payload_size: firmware.len() as u32,
            digest: sha256(firmware),
            link_offset: LINK_OFFSET,
            app_id: APP_ID,
        };
        UpdateImage {
            signed_manifest: upkit_manifest::SignedManifest {
                manifest,
                vendor_signature: vendor_sign(&manifest, &fix.vendor),
                server_signature: server_sign(&manifest, &fix.server),
            },
            payload: firmware.to_vec(),
        }
    }

    fn firmware(seed: u32, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn full_update_happy_path() {
        let mut fix = fixture(90);
        assert_eq!(fix.agent.state(), AgentState::Waiting);
        let token = fix
            .agent
            .request_device_token(&mut fix.layout, plan(), 555)
            .unwrap();
        assert_eq!(token.device_id, DEVICE_ID);
        assert_eq!(token.nonce, 555);
        assert_eq!(fix.agent.state(), AgentState::ReceiveManifest);

        let fw = firmware(1, 10_000);
        let image = make_image(&fix, &token, &fw, Version(2));
        let wire = image.to_bytes();

        let mut saw_manifest_accept = false;
        let mut final_phase = AgentPhase::NeedMore;
        for chunk in wire.chunks(333) {
            final_phase = fix.agent.push_data(&mut fix.layout, chunk).unwrap();
            if final_phase == AgentPhase::ManifestAccepted {
                saw_manifest_accept = true;
            }
        }
        assert!(saw_manifest_accept || final_phase == AgentPhase::Complete);
        assert_eq!(final_phase, AgentPhase::Complete);
        assert_eq!(fix.agent.state(), AgentState::ReadyToReboot);

        // Firmware landed in the target slot.
        let mut stored = vec![0u8; fw.len()];
        fix.layout
            .read_slot(standard::SLOT_B, FIRMWARE_OFFSET, &mut stored)
            .unwrap();
        assert_eq!(stored, fw);
        // Manifest landed in the header.
        let header = crate::image::read_manifest(&fix.layout, standard::SLOT_B)
            .unwrap()
            .unwrap();
        assert_eq!(header, image.signed_manifest);
    }

    #[test]
    fn byte_at_a_time_delivery() {
        let mut fix = fixture(91);
        let token = fix
            .agent
            .request_device_token(&mut fix.layout, plan(), 7)
            .unwrap();
        let fw = firmware(2, 2_000);
        let wire = make_image(&fix, &token, &fw, Version(2)).to_bytes();
        let mut last = AgentPhase::NeedMore;
        for byte in &wire {
            last = fix
                .agent
                .push_data(&mut fix.layout, core::slice::from_ref(byte))
                .unwrap();
        }
        assert_eq!(last, AgentPhase::Complete);
    }

    #[test]
    fn wrong_nonce_rejected_before_firmware_transfer() {
        let mut fix = fixture(92);
        let token = fix
            .agent
            .request_device_token(&mut fix.layout, plan(), 1234)
            .unwrap();
        let fw = firmware(3, 5_000);
        let stale_token = DeviceToken {
            nonce: 999,
            ..token
        };
        let image = make_image(&fix, &stale_token, &fw, Version(2));
        let err = fix
            .agent
            .push_data(&mut fix.layout, &image.signed_manifest.to_bytes())
            .unwrap_err();
        assert!(matches!(err, AgentError::Verify(VerifyError::WrongNonce)));
        assert_eq!(fix.agent.state(), AgentState::Cleaning);
        // Zero firmware bytes were accepted: early rejection.
        assert_eq!(fix.agent.payload_received(), 0);
    }

    #[test]
    fn downgrade_rejected() {
        let mut fix = fixture(93);
        let token = fix
            .agent
            .request_device_token(&mut fix.layout, plan(), 1)
            .unwrap();
        let fw = firmware(4, 1_000);
        let image = make_image(&fix, &token, &fw, Version(1)); // == installed
        let err = fix
            .agent
            .push_data(&mut fix.layout, &image.signed_manifest.to_bytes())
            .unwrap_err();
        assert!(matches!(err, AgentError::Verify(VerifyError::StaleVersion)));
    }

    #[test]
    fn tampered_firmware_rejected_before_reboot() {
        let mut fix = fixture(94);
        let token = fix
            .agent
            .request_device_token(&mut fix.layout, plan(), 2)
            .unwrap();
        let fw = firmware(5, 8_000);
        let image = make_image(&fix, &token, &fw, Version(2));
        let mut wire = image.to_bytes();
        let len = wire.len();
        wire[len - 100] ^= 0xFF; // corrupt firmware tail in transit
        let mut result = Ok(AgentPhase::NeedMore);
        for chunk in wire.chunks(500) {
            result = fix.agent.push_data(&mut fix.layout, chunk);
            if result.is_err() {
                break;
            }
        }
        assert!(matches!(
            result,
            Err(AgentError::Verify(VerifyError::DigestMismatch))
        ));
        assert_eq!(fix.agent.state(), AgentState::Cleaning);
    }

    #[test]
    fn cleaning_invalidates_slot_and_recovers() {
        let mut fix = fixture(95);
        let token = fix
            .agent
            .request_device_token(&mut fix.layout, plan(), 3)
            .unwrap();
        let fw = firmware(6, 3_000);
        let image = make_image(&fix, &token, &fw, Version(2));
        let mut wire = image.to_bytes();
        let len = wire.len();
        wire[len - 1] ^= 1;
        for chunk in wire.chunks(512) {
            let _ = fix.agent.push_data(&mut fix.layout, chunk);
        }
        assert_eq!(fix.agent.state(), AgentState::Cleaning);
        fix.agent.reset(&mut fix.layout).unwrap();
        assert_eq!(fix.agent.state(), AgentState::Waiting);
        // Slot header erased: no image visible to the bootloader.
        assert_eq!(
            crate::image::read_manifest(&fix.layout, standard::SLOT_B).unwrap(),
            None
        );
        // A subsequent update succeeds.
        let token = fix
            .agent
            .request_device_token(&mut fix.layout, plan(), 4)
            .unwrap();
        let image = make_image(&fix, &token, &fw, Version(2));
        let mut last = AgentPhase::NeedMore;
        for chunk in image.to_bytes().chunks(512) {
            last = fix.agent.push_data(&mut fix.layout, chunk).unwrap();
        }
        assert_eq!(last, AgentPhase::Complete);
    }

    #[test]
    fn data_in_waiting_state_is_rejected() {
        let mut fix = fixture(96);
        let err = fix
            .agent
            .push_data(&mut fix.layout, &[0u8; 10])
            .unwrap_err();
        assert!(matches!(err, AgentError::WrongState(AgentState::Waiting)));
    }

    #[test]
    fn second_token_request_mid_session_rejected() {
        let mut fix = fixture(97);
        fix.agent
            .request_device_token(&mut fix.layout, plan(), 5)
            .unwrap();
        let err = fix
            .agent
            .request_device_token(&mut fix.layout, plan(), 6)
            .unwrap_err();
        assert!(matches!(
            err,
            AgentError::WrongState(AgentState::ReceiveManifest)
        ));
    }

    #[test]
    fn excess_payload_rejected() {
        let mut fix = fixture(98);
        let token = fix
            .agent
            .request_device_token(&mut fix.layout, plan(), 8)
            .unwrap();
        let fw = firmware(7, 1_000);
        let image = make_image(&fix, &token, &fw, Version(2));
        let mut wire = image.to_bytes();
        wire.extend_from_slice(&[0xEE; 4]); // trailing garbage
        let mut result = Ok(AgentPhase::NeedMore);
        for chunk in wire.chunks(256) {
            result = fix.agent.push_data(&mut fix.layout, chunk);
            if result.is_err() {
                break;
            }
        }
        assert!(matches!(result, Err(AgentError::TooMuchData)));
    }

    #[test]
    fn token_reports_differential_support() {
        let mut fix = fixture(99);
        let token = fix
            .agent
            .request_device_token(&mut fix.layout, plan(), 9)
            .unwrap();
        assert_eq!(token.current_version, Version(1));
        assert!(token.supports_differential());

        // A non-differential agent advertises version 0.
        let mut fix2 = fixture(100);
        fix2.agent.config.supports_differential = false;
        let token2 = fix2
            .agent
            .request_device_token(&mut fix2.layout, plan(), 10)
            .unwrap();
        assert_eq!(token2.current_version, Version(0));
        assert!(!token2.supports_differential());
    }
}
