//! Ablation experiments for the design choices DESIGN.md calls out (not
//! figures from the paper, but quantified evidence for its claims):
//!
//! 1. **Early rejection** — energy/bytes wasted on a tampered update with
//!    agent-side verification (UpKit) vs bootloader-only verification
//!    (mcuboot-style store-then-verify).
//! 2. **Double signature** — the attack matrix: which attacks each
//!    verification policy stops.
//! 3. **Crypto backends** — verification-phase time for tinycrypt,
//!    TinyDTLS, and the ATECC508 HSM.
//!
//! ```text
//! cargo run --release -p upkit-bench --bin ablations
//! ```

use upkit_bench::print_table;
use upkit_sim::{run_scenario, Approach, CryptoChoice, ScenarioConfig};

fn main() {
    early_rejection();
    attack_matrix();
    crypto_backends();
}

fn early_rejection() {
    let honest = run_scenario(&ScenarioConfig::fig8a(Approach::Push));

    // UpKit: tampered manifest rejected before any firmware transfer.
    let mut cfg = ScenarioConfig::fig8a(Approach::Push);
    cfg.tamper = upkit_net::FrameTamper::FlipBit { offset: 40 };
    let upkit_tampered = run_scenario(&cfg);

    // mcuboot-style: the device downloads everything, stores it, reboots,
    // and only then rejects — modeled as the honest session's propagation
    // cost plus a wasted reboot, with nothing gained.
    let wasted_bytes_baseline = honest.payload_bytes;
    let wasted_energy_baseline = honest.energy_uj;

    print_table(
        "Ablation 1: cost of receiving one tampered update",
        &["Policy", "Radio bytes wasted", "Energy wasted (mJ)"],
        &[
            vec![
                "UpKit (verify in agent)".into(),
                upkit_tampered.payload_bytes.to_string(),
                format!("{:.1}", upkit_tampered.energy_uj / 1000.0),
            ],
            vec![
                "Bootloader-only (mcuboot-style)".into(),
                wasted_bytes_baseline.to_string(),
                format!("{:.1}", wasted_energy_baseline / 1000.0),
            ],
        ],
    );
    let factor = wasted_energy_baseline / upkit_tampered.energy_uj.max(1.0);
    println!("Early rejection saves a factor of {factor:.0}× in wasted energy per attack.");
}

fn attack_matrix() {
    // Columns: does the policy stop the attack? (demonstrated by the
    // integration test suite; summarized here.)
    print_table(
        "Ablation 2: attack matrix (✓ = attack stopped)",
        &["Attack", "CRC only", "mcuboot", "LwM2M+proxy", "UpKit"],
        &[
            vec![
                "Random corruption".into(),
                "yes".into(),
                "yes".into(),
                "no (agent) / yes (boot)".into(),
                "yes (in agent)".into(),
            ],
            vec![
                "Forged firmware".into(),
                "no".into(),
                "yes".into(),
                "yes (at boot)".into(),
                "yes (in agent)".into(),
            ],
            vec![
                "Replay old image".into(),
                "no".into(),
                "no".into(),
                "no".into(),
                "yes (nonce)".into(),
            ],
            vec![
                "Downgrade".into(),
                "no".into(),
                "no (default)".into(),
                "no".into(),
                "yes (version)".into(),
            ],
            vec![
                "Cross-device replay".into(),
                "no".into(),
                "no".into(),
                "no".into(),
                "yes (device ID)".into(),
            ],
        ],
    );
}

fn crypto_backends() {
    let mut rows = Vec::new();
    for (name, choice) in [
        ("tinycrypt (software)", CryptoChoice::TinyCrypt),
        ("TinyDTLS (software)", CryptoChoice::TinyDtls),
        ("CryptoAuthLib + ATECC508", CryptoChoice::Hsm),
    ] {
        let mut cfg = ScenarioConfig::fig8a(Approach::Push);
        cfg.crypto = choice;
        let result = run_scenario(&cfg);
        assert!(result.outcome.is_complete());
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", result.phases.verification_micros as f64 / 1e6),
        ]);
    }
    print_table(
        "Ablation 3: verification-phase time by crypto backend (100 kB image)",
        &["Backend", "Verification (s)"],
        &rows,
    );
    println!(
        "The HSM trades ~58 ms of fixed latency per signature for ~10% less\n\
         bootloader flash and tamper-protected key storage (Table I)."
    );
}
