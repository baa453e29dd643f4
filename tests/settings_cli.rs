//! The `TLPSIM_*` environment at the process boundary: every knob
//! follows the one rule of `tlpsim_core::settings` in the CLI and in
//! the worker host, and `TLPSIM_EXACT=1` vetoes sampling end to end.
//! Every spawned process starts with no inherited `TLPSIM_*` variable.

use std::ffi::OsStr;
use std::os::unix::ffi::OsStrExt;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// The tlpsim binary with every inherited `TLPSIM_*` variable removed
/// and `env` set.
fn tlpsim(env: &[(&str, &OsStr)]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tlpsim"));
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("TLPSIM_") {
            cmd.env_remove(&k);
        }
    }
    cmd.envs(env.iter().copied());
    cmd.stdin(Stdio::null());
    cmd
}

fn os(v: &str) -> &OsStr {
    OsStr::new(v)
}

/// Run `tlpsim list`, which simulates nothing, under `env`.
fn list(env: &[(&str, &OsStr)]) -> Output {
    tlpsim(env).arg("list").output().expect("tlpsim runs")
}

#[test]
fn every_knob_follows_one_rule() {
    // Each of the 14 parsed knobs with a malformed value: exit 2, and
    // the diagnostic names the variable. TLPSIM_CACHE takes any path,
    // so its malformed value is one that is not UTF-8.
    let malformed: [(&str, &OsStr); 14] = [
        ("TLPSIM_THREADS", os("abc")),
        ("TLPSIM_CACHE", OsStr::from_bytes(b"/tmp/\xffcache")),
        ("TLPSIM_TRACE", os("t.json:0")),
        ("TLPSIM_CKPT_CYCLES", os("abc")),
        ("TLPSIM_WATCHDOG_CYCLES", os("0")),
        ("TLPSIM_SAMPLE", os("window:x")),
        ("TLPSIM_EXACT", os("yes")),
        ("TLPSIM_FAULT", os("crash:2.0")),
        ("TLPSIM_SCALE", os("huge")),
        ("TLPSIM_SERVE_SCALE", os("1,2,3")),
        ("TLPSIM_SERVE_QUEUE_DEPTH", os("0")),
        ("TLPSIM_SERVE_HB_MS", os("soon")),
        ("TLPSIM_SERVE_HB_TIMEOUT_MS", os("-1")),
        ("TLPSIM_SERVE_RETRY_MS", os("1.5")),
    ];
    // A misspelled name, and the three retired ones.
    let unknown: [(&str, &OsStr); 4] = [
        ("TLPSIM_SAMPLES", os("window:512")),
        ("TLPSIM_SERVE_ATTEMPTS", os("5")),
        ("TLPSIM_SERVE_CELL_TIMEOUT_MS", os("60000")),
        ("TLPSIM_SERVE_IO_TIMEOUT_MS", os("5000")),
    ];
    for (name, v) in malformed.into_iter().chain(unknown) {
        let out = list(&[(name, v)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}={v:?}: {stderr}");
        assert!(stderr.contains(name), "{name}={v:?}: {stderr}");
    }

    // Empty or space-padded values follow the same rule everywhere.
    let padded: [(&str, &OsStr); 5] = [
        ("TLPSIM_THREADS", os("")),
        ("TLPSIM_EXACT", os(" 1")),
        ("TLPSIM_SAMPLE", os("")),
        ("TLPSIM_SERVE_HB_MS", os(" 120 ")),
        ("TLPSIM_SERVE_QUEUE_DEPTH", os("")),
    ];
    for (name, v) in padded {
        let out = list(&[(name, v)]);
        assert!(
            out.status.success(),
            "{name}={v:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // The worker host checks every knob too, before it dials its
    // supervisor: it exits 2 at once instead of retrying a connect.
    let dir = std::env::temp_dir().join(format!("tlpsim-settings-{}", std::process::id()));
    let started = Instant::now();
    let out = tlpsim(&[("TLPSIM_CKPT_CYCLES", os("abc"))])
        .arg("__serve-worker")
        .arg("--tcp")
        .arg("127.0.0.1:1")
        .arg(dir.join("cells"))
        .arg(dir.join("ckpt"))
        .output()
        .expect("worker host runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("TLPSIM_CKPT_CYCLES"), "{stderr}");
    assert!(started.elapsed() < Duration::from_secs(5), "{stderr}");
}

/// Start `tlpsim run 4B 1` with `flags` under `env`.
fn run_4b_1(flags: &[&str], env: &[(&str, &OsStr)]) -> Child {
    tlpsim(env)
        .args(["run", "4B", "1"])
        .args(flags)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("tlpsim runs")
}

#[test]
fn exact_veto_overrides_the_sampled_flag_and_the_spec() {
    let spec = ("TLPSIM_SAMPLE", os("window:512,stride:8192"));
    let veto = ("TLPSIM_EXACT", os("1"));
    // About a second each in a debug build, so all at once.
    let children = [
        run_4b_1(&[], &[]),
        run_4b_1(&["--sampled"], &[]),
        run_4b_1(&[], &[spec]),
        run_4b_1(&["--sampled"], &[veto]),
        run_4b_1(&[], &[spec, veto]),
    ];
    let outs: Vec<String> = children
        .into_iter()
        .map(|c| {
            let out = c.wait_with_output().expect("tlpsim finishes");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{stderr}");
            String::from_utf8(out.stdout).expect("UTF-8 output")
        })
        .collect();
    let [exact, flag, spec, vetoed_flag, vetoed_spec] = &outs[..] else {
        unreachable!("five runs")
    };
    // Without the veto each way of asking for sampling changes the
    // output; otherwise the checks below could not see a broken veto.
    assert_ne!(flag, exact, "--sampled printed the exact result");
    assert_ne!(spec, exact, "TLPSIM_SAMPLE printed the exact result");
    assert_eq!(vetoed_flag, exact, "TLPSIM_EXACT=1 did not veto --sampled");
    assert_eq!(
        vetoed_spec, exact,
        "TLPSIM_EXACT=1 did not veto TLPSIM_SAMPLE"
    );
}
