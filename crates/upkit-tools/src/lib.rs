//! Library behind the `upkit-tools` command line: the vendor/update-server
//! operations an UpKit deployment runs off-device.
//!
//! The binary is a thin argument parser over these functions so everything
//! is unit-testable:
//!
//! * [`keygen`] — generate a P-256 key pair (hex files).
//! * [`make_release`] — vendor-sign a firmware binary into a release file.
//! * [`prepare_update`] — answer a device token with a double-signed
//!   update image, optionally differential.
//! * [`inspect_image`] — human-readable dump of an update image.
//! * [`verify_image`] — check both signatures and the firmware digest of a
//!   full update image.
//! * [`suit_export`] — emit the SUIT-style CBOR envelope of an image's
//!   manifest.
//!
//! File formats: keys are lowercase hex (32-byte scalar / 65-byte SEC1
//! public). A *release file* is `manifest(60) ‖ vendor_sig(64) ‖ firmware`
//! — the request-independent output of the generation phase. An *update
//! image* is the on-wire `SignedManifest ‖ payload` from `upkit-manifest`.

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use upkit_core::generation::{Release, UpdateServer, VendorServer};
use upkit_core::pipeline::{Decoder, VecSink};
use upkit_crypto::ecdsa::{Signature, SigningKey, VerifyingKey};
use upkit_crypto::sha256::sha256;
pub use upkit_delta::PatchFormat;
use upkit_manifest::{DeviceToken, Manifest, SignedManifest, UpdateImage, Version, MANIFEST_LEN};
use upkit_trace::Counters;

/// Length of a release file's fixed header (manifest + vendor signature).
pub const RELEASE_HEADER_LEN: usize = MANIFEST_LEN + 64;

/// Tool errors, with operator-facing messages.
#[derive(Debug)]
#[non_exhaustive]
pub enum ToolError {
    /// Filesystem failure (path included in the message).
    Io(String),
    /// A key or signature file held invalid material.
    BadKeyMaterial(String),
    /// An input file was not the expected format.
    BadFormat(String),
    /// Verification failed.
    VerifyFailed(String),
}

impl core::fmt::Display for ToolError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io(m) => write!(f, "io error: {m}"),
            Self::BadKeyMaterial(m) => write!(f, "bad key material: {m}"),
            Self::BadFormat(m) => write!(f, "bad format: {m}"),
            Self::VerifyFailed(m) => write!(f, "verification failed: {m}"),
        }
    }
}

impl std::error::Error for ToolError {}

fn read(path: &Path) -> Result<Vec<u8>, ToolError> {
    fs::read(path).map_err(|e| ToolError::Io(format!("{}: {e}", path.display())))
}

fn write(path: &Path, data: &[u8]) -> Result<(), ToolError> {
    fs::write(path, data).map_err(|e| ToolError::Io(format!("{}: {e}", path.display())))
}

/// Encodes bytes as lowercase hex.
#[must_use]
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// Decodes lowercase/uppercase hex (whitespace tolerated at the ends).
pub fn from_hex(text: &str) -> Result<Vec<u8>, ToolError> {
    let text = text.trim();
    if !text.len().is_multiple_of(2) {
        return Err(ToolError::BadFormat("odd-length hex string".into()));
    }
    (0..text.len() / 2)
        .map(|i| {
            u8::from_str_radix(&text[i * 2..i * 2 + 2], 16)
                .map_err(|_| ToolError::BadFormat("non-hex character".into()))
        })
        .collect()
}

fn load_signing_key(path: &Path) -> Result<SigningKey, ToolError> {
    let hex = String::from_utf8(read(path)?)
        .map_err(|_| ToolError::BadKeyMaterial("key file is not text".into()))?;
    let bytes = from_hex(&hex)?;
    let array: [u8; 32] = bytes
        .try_into()
        .map_err(|_| ToolError::BadKeyMaterial("private key must be 32 bytes".into()))?;
    SigningKey::from_bytes(&array)
        .map_err(|e| ToolError::BadKeyMaterial(format!("invalid scalar: {e}")))
}

fn load_verifying_key(path: &Path) -> Result<VerifyingKey, ToolError> {
    let hex = String::from_utf8(read(path)?)
        .map_err(|_| ToolError::BadKeyMaterial("key file is not text".into()))?;
    let bytes = from_hex(&hex)?;
    VerifyingKey::from_sec1_bytes(&bytes)
        .map_err(|e| ToolError::BadKeyMaterial(format!("invalid public key: {e}")))
}

/// Generates a key pair, writing `<prefix>.key` (private scalar, hex) and
/// `<prefix>.pub` (SEC1 uncompressed, hex). Returns the public key hex.
pub fn keygen(prefix: &Path) -> Result<String, ToolError> {
    let key = SigningKey::generate(&mut rand::rng());
    let public_hex = to_hex(&key.verifying_key().to_sec1_bytes());
    write(
        &prefix.with_extension("key"),
        to_hex(&key.to_bytes()).as_bytes(),
    )?;
    write(&prefix.with_extension("pub"), public_hex.as_bytes())?;
    Ok(public_hex)
}

/// Builds a release file: vendor-signed manifest core plus the firmware.
pub fn make_release(
    firmware_path: &Path,
    version: u16,
    link_offset: u32,
    app_id: u32,
    vendor_key_path: &Path,
    out_path: &Path,
) -> Result<(), ToolError> {
    let firmware = read(firmware_path)?;
    let vendor = VendorServer::new(load_signing_key(vendor_key_path)?);
    let release = vendor.release(firmware, Version(version), link_offset, app_id);

    let manifest = release_manifest(&release);
    let mut out = Vec::with_capacity(RELEASE_HEADER_LEN + release.firmware.len());
    out.extend_from_slice(&manifest.to_bytes());
    out.extend_from_slice(&release.vendor_signature.to_bytes());
    out.extend_from_slice(&release.firmware);
    write(out_path, &out)
}

fn release_manifest(release: &Release) -> Manifest {
    Manifest {
        device_id: 0,
        nonce: 0,
        old_version: Version(0),
        version: release.version,
        size: release.firmware.len() as u32,
        payload_size: release.firmware.len() as u32,
        digest: release.digest,
        link_offset: release.link_offset,
        app_id: release.app_id,
    }
}

fn load_release(path: &Path) -> Result<Release, ToolError> {
    let bytes = read(path)?;
    if bytes.len() < RELEASE_HEADER_LEN {
        return Err(ToolError::BadFormat("release file too short".into()));
    }
    let manifest = Manifest::from_bytes(&bytes[..MANIFEST_LEN])
        .map_err(|e| ToolError::BadFormat(format!("release manifest: {e}")))?;
    let vendor_signature = Signature::from_bytes(&bytes[MANIFEST_LEN..RELEASE_HEADER_LEN])
        .map_err(|e| ToolError::BadFormat(format!("vendor signature: {e}")))?;
    let firmware = bytes[RELEASE_HEADER_LEN..].to_vec();
    if firmware.len() as u32 != manifest.size {
        return Err(ToolError::BadFormat(
            "firmware length disagrees with release manifest".into(),
        ));
    }
    Ok(Release {
        version: manifest.version,
        digest: manifest.digest,
        link_offset: manifest.link_offset,
        app_id: manifest.app_id,
        vendor_signature,
        firmware,
    })
}

/// Prepares a double-signed update image for one device token, serving a
/// differential payload when `base_release` (the firmware the device
/// currently runs) is supplied. `format` selects the patch container for
/// differential payloads; devices sniff it from the payload magic.
#[allow(clippy::too_many_arguments)]
pub fn prepare_update(
    release_path: &Path,
    server_key_path: &Path,
    device_id: u32,
    nonce: u32,
    base_release_path: Option<&Path>,
    format: PatchFormat,
    out_path: &Path,
) -> Result<&'static str, ToolError> {
    let mut server = UpdateServer::new(load_signing_key(server_key_path)?);
    server.set_patch_format(format);
    let release = load_release(release_path)?;
    let latest_version = release.version;
    server.publish(release);

    let current_version = match base_release_path {
        Some(base) => {
            let base_release = load_release(base)?;
            let version = base_release.version;
            server.publish(base_release);
            version
        }
        None => Version(0),
    };

    let token = DeviceToken {
        device_id,
        nonce,
        current_version,
    };
    let prepared = server.prepare_update(&token).ok_or_else(|| {
        ToolError::BadFormat(format!(
            "device already runs {current_version}, latest is {latest_version}"
        ))
    })?;
    write(out_path, &prepared.image.to_bytes())?;
    Ok(match prepared.kind {
        upkit_core::generation::ServedKind::Full => "full",
        upkit_core::generation::ServedKind::Differential { .. } => "differential",
    })
}

/// Renders an update image's manifest as a human-readable report.
pub fn inspect_image(image_path: &Path) -> Result<String, ToolError> {
    let bytes = read(image_path)?;
    let image = UpdateImage::from_bytes(&bytes)
        .map_err(|e| ToolError::BadFormat(format!("update image: {e}")))?;
    let m = image.signed_manifest.manifest;
    let mut out = String::new();
    let _ = writeln!(out, "update image: {} bytes", bytes.len());
    let _ = writeln!(out, "  device id:    {:#010x}", m.device_id);
    let _ = writeln!(out, "  nonce:        {:#010x}", m.nonce);
    let _ = writeln!(
        out,
        "  version:      {} (old: {})",
        m.version, m.old_version
    );
    let _ = writeln!(
        out,
        "  kind:         {}",
        if m.is_differential() {
            "differential"
        } else {
            "full image"
        }
    );
    let _ = writeln!(out, "  firmware:     {} bytes", m.size);
    let _ = writeln!(out, "  payload:      {} bytes", m.payload_size);
    let _ = writeln!(out, "  digest:       {}", to_hex(&m.digest));
    let _ = writeln!(out, "  link offset:  {:#010x}", m.link_offset);
    let _ = writeln!(out, "  app id:       {:#010x}", m.app_id);
    Ok(out)
}

/// Verifies an update image end to end: both signatures and — for full
/// images — the payload digest. Differential payloads are verified against
/// the base firmware when one is supplied.
pub fn verify_image(
    image_path: &Path,
    vendor_pub_path: &Path,
    server_pub_path: &Path,
    base_firmware_path: Option<&Path>,
) -> Result<String, ToolError> {
    let bytes = read(image_path)?;
    let image = UpdateImage::from_bytes(&bytes)
        .map_err(|e| ToolError::BadFormat(format!("update image: {e}")))?;
    let vendor = load_verifying_key(vendor_pub_path)?;
    let server = load_verifying_key(server_pub_path)?;

    image
        .signed_manifest
        .verify_with_keys(&vendor, &server)
        .map_err(|e| ToolError::VerifyFailed(format!("signature check: {e}")))?;

    let m = image.signed_manifest.manifest;
    let mut decoder = if m.is_differential() {
        let Some(base_path) = base_firmware_path else {
            return Ok(
                "signatures OK (differential payload: supply --base to check the digest)".into(),
            );
        };
        Decoder::differential(read(base_path)?, m.size)
    } else {
        Decoder::full(m.size)
    };
    // The device's own decoder: the container sniff, the decode budgets
    // (the signature-checked firmware size) and the exact-size check.
    let mut firmware = Vec::new();
    let counters = Counters::default();
    let mut sink = VecSink {
        image: &mut firmware,
        counters: &counters,
    };
    decoder
        .push(&image.payload, &mut sink)
        .and_then(|()| decoder.finish(&mut sink))
        .map_err(|e| ToolError::VerifyFailed(format!("payload decode: {e}")))?;
    if sha256(&firmware) != m.digest {
        return Err(ToolError::VerifyFailed("firmware digest mismatch".into()));
    }
    Ok("signatures OK, firmware digest OK".into())
}

/// Writes the SUIT-style CBOR envelope of an image's manifest.
pub fn suit_export(image_path: &Path, out_path: &Path) -> Result<usize, ToolError> {
    let bytes = read(image_path)?;
    let signed = SignedManifest::from_bytes(&bytes)
        .map_err(|e| ToolError::BadFormat(format!("update image: {e}")))?;
    let envelope = upkit_manifest::suit::to_suit_envelope(&signed.manifest);
    write(out_path, &envelope)?;
    Ok(envelope.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let mut p = std::env::temp_dir();
            p.push(format!("upkit-tools-test-{}-{tag}", std::process::id()));
            let _ = fs::remove_dir_all(&p);
            fs::create_dir_all(&p).unwrap();
            Self(p)
        }
        fn path(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn hex_round_trip() {
        assert_eq!(
            from_hex(&to_hex(&[0, 1, 0xAB, 0xFF])).unwrap(),
            vec![0, 1, 0xAB, 0xFF]
        );
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
        assert_eq!(from_hex("  0a0b \n").unwrap(), vec![0x0A, 0x0B]);
    }

    #[test]
    fn keygen_produces_loadable_pair() {
        let dir = TempDir::new("keygen");
        let public_hex = keygen(&dir.path("vendor")).unwrap();
        let key = load_signing_key(&dir.path("vendor.key")).unwrap();
        let public = load_verifying_key(&dir.path("vendor.pub")).unwrap();
        assert_eq!(to_hex(&key.verifying_key().to_sec1_bytes()), public_hex);
        assert_eq!(to_hex(&public.to_sec1_bytes()), public_hex);
    }

    #[test]
    fn full_tool_pipeline_release_prepare_verify() {
        let dir = TempDir::new("pipeline");
        keygen(&dir.path("vendor")).unwrap();
        keygen(&dir.path("server")).unwrap();
        fs::write(dir.path("fw.bin"), vec![0x42u8; 5000]).unwrap();

        make_release(
            &dir.path("fw.bin"),
            2,
            0x100,
            0xA,
            &dir.path("vendor.key"),
            &dir.path("release.bin"),
        )
        .unwrap();

        let kind = prepare_update(
            &dir.path("release.bin"),
            &dir.path("server.key"),
            0xD1,
            0x42,
            None,
            PatchFormat::Raw,
            &dir.path("update.img"),
        )
        .unwrap();
        assert_eq!(kind, "full");

        let report = verify_image(
            &dir.path("update.img"),
            &dir.path("vendor.pub"),
            &dir.path("server.pub"),
            None,
        )
        .unwrap();
        assert!(report.contains("digest OK"), "{report}");

        let dump = inspect_image(&dir.path("update.img")).unwrap();
        assert!(dump.contains("device id:    0x000000d1"), "{dump}");
        assert!(dump.contains("full image"), "{dump}");
    }

    #[test]
    fn differential_pipeline_and_base_verification() {
        let dir = TempDir::new("diff");
        keygen(&dir.path("vendor")).unwrap();
        keygen(&dir.path("server")).unwrap();
        let v1: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let mut v2 = v1.clone();
        v2[100..140].fill(0x99);
        fs::write(dir.path("v1.bin"), &v1).unwrap();
        fs::write(dir.path("v2.bin"), &v2).unwrap();

        make_release(
            &dir.path("v1.bin"),
            1,
            0,
            0xA,
            &dir.path("vendor.key"),
            &dir.path("r1.bin"),
        )
        .unwrap();
        make_release(
            &dir.path("v2.bin"),
            2,
            0,
            0xA,
            &dir.path("vendor.key"),
            &dir.path("r2.bin"),
        )
        .unwrap();

        let kind = prepare_update(
            &dir.path("r2.bin"),
            &dir.path("server.key"),
            0xD2,
            7,
            Some(&dir.path("r1.bin")),
            PatchFormat::Raw,
            &dir.path("update.img"),
        )
        .unwrap();
        assert_eq!(kind, "differential");

        // Without the base only the signatures can be checked…
        let partial = verify_image(
            &dir.path("update.img"),
            &dir.path("vendor.pub"),
            &dir.path("server.pub"),
            None,
        )
        .unwrap();
        assert!(partial.contains("supply --base"), "{partial}");
        // …with it, the digest is reconstructed and checked.
        let full = verify_image(
            &dir.path("update.img"),
            &dir.path("vendor.pub"),
            &dir.path("server.pub"),
            Some(&dir.path("v1.bin")),
        )
        .unwrap();
        assert!(full.contains("digest OK"), "{full}");

        // The framed container runs the same pipeline: prepared with
        // --format framed, sniffed and re-applied by verify.
        let kind = prepare_update(
            &dir.path("r2.bin"),
            &dir.path("server.key"),
            0xD2,
            8,
            Some(&dir.path("r1.bin")),
            PatchFormat::Framed,
            &dir.path("framed.img"),
        )
        .unwrap();
        assert_eq!(kind, "differential");
        let framed_payload = read(&dir.path("framed.img")).unwrap();
        assert!(
            framed_payload
                .windows(4)
                .any(|w| w == upkit_delta::FRAMED_MAGIC),
            "payload should carry the framed magic"
        );
        let framed = verify_image(
            &dir.path("framed.img"),
            &dir.path("vendor.pub"),
            &dir.path("server.pub"),
            Some(&dir.path("v1.bin")),
        )
        .unwrap();
        assert!(framed.contains("digest OK"), "{framed}");
    }

    #[test]
    fn verify_rejects_wrong_keys_and_tampering() {
        let dir = TempDir::new("reject");
        keygen(&dir.path("vendor")).unwrap();
        keygen(&dir.path("server")).unwrap();
        keygen(&dir.path("other")).unwrap();
        fs::write(dir.path("fw.bin"), vec![1u8; 1000]).unwrap();
        make_release(
            &dir.path("fw.bin"),
            2,
            0,
            1,
            &dir.path("vendor.key"),
            &dir.path("r.bin"),
        )
        .unwrap();
        prepare_update(
            &dir.path("r.bin"),
            &dir.path("server.key"),
            1,
            1,
            None,
            PatchFormat::Raw,
            &dir.path("u.img"),
        )
        .unwrap();

        assert!(matches!(
            verify_image(
                &dir.path("u.img"),
                &dir.path("other.pub"),
                &dir.path("server.pub"),
                None
            ),
            Err(ToolError::VerifyFailed(_))
        ));

        let mut tampered = fs::read(dir.path("u.img")).unwrap();
        let len = tampered.len();
        tampered[len - 1] ^= 1;
        fs::write(dir.path("t.img"), &tampered).unwrap();
        assert!(matches!(
            verify_image(
                &dir.path("t.img"),
                &dir.path("vendor.pub"),
                &dir.path("server.pub"),
                None
            ),
            Err(ToolError::VerifyFailed(_))
        ));
    }

    #[test]
    fn suit_export_round_trips_through_the_envelope() {
        let dir = TempDir::new("suit");
        keygen(&dir.path("vendor")).unwrap();
        keygen(&dir.path("server")).unwrap();
        fs::write(dir.path("fw.bin"), vec![3u8; 256]).unwrap();
        make_release(
            &dir.path("fw.bin"),
            4,
            0x20,
            9,
            &dir.path("vendor.key"),
            &dir.path("r.bin"),
        )
        .unwrap();
        prepare_update(
            &dir.path("r.bin"),
            &dir.path("server.key"),
            5,
            6,
            None,
            PatchFormat::Raw,
            &dir.path("u.img"),
        )
        .unwrap();

        let size = suit_export(&dir.path("u.img"), &dir.path("m.suit")).unwrap();
        assert!(size > 0);
        let envelope = fs::read(dir.path("m.suit")).unwrap();
        let manifest = upkit_manifest::suit::from_suit_envelope(&envelope).unwrap();
        assert_eq!(manifest.version, Version(4));
        assert_eq!(manifest.device_id, 5);
    }

    #[test]
    fn release_loader_rejects_corrupt_files() {
        let dir = TempDir::new("corrupt");
        fs::write(dir.path("short.bin"), vec![0u8; 10]).unwrap();
        assert!(matches!(
            load_release(&dir.path("short.bin")),
            Err(ToolError::BadFormat(_))
        ));
        assert!(matches!(
            load_release(&dir.path("missing.bin")),
            Err(ToolError::Io(_))
        ));
    }
}
