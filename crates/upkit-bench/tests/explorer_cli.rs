//! The `--repro` path of the two explorer binaries: exit codes, the usage
//! line on malformed input, and a shrunk violation's counterexample lines
//! and reproducer command, which parses back through the shared parser.
//! `--repro` writes no file.

use std::process::{Command, Output};

use upkit_adversary::MutationClass;
use upkit_bench::{counterexamples, parse_repro};
use upkit_chaos::{explore, shrink_violation, ChaosConfig, FaultClass};
use upkit_sim::explore::repro_command;
use upkit_sim::{WorldConfig, WorldMode};

const CHAOS: &str = env!("CARGO_BIN_EXE_chaos_explore");
const ADVERSARY: &str = env!("CARGO_BIN_EXE_adversary_explore");

const CHAOS_USAGE: &str =
    "usage: chaos_explore --repro <mode> <seed> <firmware_size> <slot_size> <fault> <boundary>";
const ADVERSARY_USAGE: &str =
    "usage: adversary_explore --repro <mode> <seed> <firmware_size> <slot_size> <surface> <index>";

fn repro(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .arg("--repro")
        .args(args)
        .output()
        .expect("the explorer binary runs")
}

#[test]
fn passing_cases_exit_zero() {
    for (bin, args) in [
        (CHAOS, ["ab", "7", "6000", "12288", "clean_cut", "0"]),
        (ADVERSARY, ["ab", "7", "6000", "12288", "lzss", "9"]),
    ] {
        let out = repro(bin, &args);
        assert_eq!(out.status.code(), Some(0), "{bin} {args:?}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("violation: None"));
    }
}

#[test]
fn a_known_violation_exits_one() {
    // A cut once the bare static swap has started bricks the device.
    let out = repro(CHAOS, &["static", "7", "6000", "12288", "clean_cut", "9"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("device bricked: "));
}

#[test]
fn malformed_lists_exit_two_with_the_usage_line() {
    for (bin, usage, args) in [
        (CHAOS, CHAOS_USAGE, &["ab", "7"][..]),
        (
            CHAOS,
            CHAOS_USAGE,
            &["ab", "7", "6000", "12288", "meteor_strike", "0"],
        ),
        (ADVERSARY, ADVERSARY_USAGE, &["ab", "7", "6000", "12288"]),
        (
            ADVERSARY,
            ADVERSARY_USAGE,
            &["ab", "7", "6000", "12288", "telepathy", "9"],
        ),
    ] {
        let out = repro(bin, args);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {out:?}");
        assert_eq!(String::from_utf8_lossy(&out.stderr).trim_end(), usage);
        assert!(out.stdout.is_empty());
    }
}

/// The words after `--repro` in a reproducer command.
fn repro_words(command: &str) -> Vec<String> {
    let (_, words) = command
        .split_once(" --repro ")
        .expect("a reproducer command carries --repro");
    words.split(' ').map(String::from).collect()
}

#[test]
fn shrunk_violations_are_reported_and_parse_back_through_the_shared_parser() {
    let config = ChaosConfig::exhaustive(WorldConfig {
        seed: 7,
        firmware_size: 6_000,
        slot_size: 4096 * 3,
        mode: WorldMode::StaticSwap { recovery: false },
    });
    let report = explore(&config);
    let shrunk = shrink_violation(&config, &report).expect("the bare static swap bricks");
    assert!(shrunk
        .command
        .starts_with("cargo run --release -p upkit-bench --bin chaos_explore -- --repro "));
    let parsed = parse_repro::<FaultClass>(&repro_words(&shrunk.command));
    assert_eq!(
        parsed,
        Ok((config.scenario, shrunk.case.fault, shrunk.case.boundary))
    );

    // The counterexample file: the shrunk case, then every violation.
    let head = format!(
        "static: boundary {} fault {} — device bricked: ",
        shrunk.case.boundary,
        shrunk.case.fault.label()
    );
    let lines = counterexamples("static: ", &report, Some(shrunk), |fault, boundary| {
        format!("boundary {boundary} fault {}", fault.label())
    });
    assert_eq!(lines.len(), 1 + report.violations().len());
    assert!(lines[0].starts_with(&head), "{}", lines[0]);
    assert!(lines[1..]
        .iter()
        .all(|line| line.starts_with("  also at boundary ")));

    // The adversary's commands come from the same formatter.
    let command = repro_command(&config.scenario, MutationClass::FramedDelta, 41);
    assert_eq!(
        parse_repro::<MutationClass>(&repro_words(&command)),
        Ok((config.scenario, MutationClass::FramedDelta, 41))
    );
}
