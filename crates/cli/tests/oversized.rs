//! A network too large for 32-bit node ids is a usage error, not an
//! allocator abort: through a flag, a spec file or a grid axis, the real
//! binary must print one `error: ...` line and exit 2 before building
//! anything.

use std::process::Command;

const TOO_MANY: &str = "4294967297";

fn assert_rejected(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_gossip-sim"))
        .args(args)
        .output()
        .expect("spawn gossip-sim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(stderr.contains("nodes"), "{args:?}: {stderr}");
    assert!(stderr.contains("at most 4294967295"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(!stderr.contains("memory allocation"), "{args:?}: {stderr}");
}

#[test]
fn oversized_networks_exit_2_with_a_structured_error() {
    assert_rejected(&["--nodes", TOO_MANY]);
    assert_rejected(&["bench", "--nodes", TOO_MANY]);
    assert_rejected(&["grid", "--axis", &format!("nodes=10,{TOO_MANY}")]);

    let spec = std::env::temp_dir().join(format!("gossip-oversized-{}.spec", std::process::id()));
    std::fs::write(&spec, format!("[scenario]\nnodes = {TOO_MANY}\n")).expect("write spec");
    let path = spec.to_str().expect("utf-8 temp path");
    assert_rejected(&["grid", "--spec", path]);
    std::fs::remove_file(&spec).ok();
}

#[test]
fn the_largest_addressable_network_still_parses() {
    let args: Vec<String> = ["--nodes", "4294967295"].map(String::from).to_vec();
    assert!(gossip_cli::parse_args(&args).is_ok());
}
