//! CLI-level checks for the `snapshot` binary's header-only `info`
//! command and the streaming `stream` command — the two entry points the
//! CI scale-smoke leg drives, exercised here at sane sizes.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn snapshot(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_snapshot")).args(args).output().expect("snapshot binary runs")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcl-snapcli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn info_prints_header_fields_without_loading_tables() {
    let dir = tempdir("info");
    let image = dir.join("torus.lclg");
    let image_str = image.display().to_string();
    let froze = snapshot(&["freeze", "torus", "64", "1", &image_str]);
    assert!(froze.status.success(), "{}", String::from_utf8_lossy(&froze.stderr));

    let out = snapshot(&["info", &image_str]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let line = String::from_utf8_lossy(&out.stdout);
    assert!(line.contains("lclg v1"), "{line}");
    assert!(line.contains("n=64"), "{line}");
    assert!(line.contains("m=128"), "{line}");
    assert!(line.contains("max_degree=4"), "{line}");
    assert!(line.contains("hash="), "{line}");

    // Truncating the header makes `info` fail loudly with a nonzero exit.
    std::fs::write(&image, b"LCLG").unwrap();
    let bad = snapshot(&["info", &image_str]);
    assert_eq!(bad.status.code(), Some(1));
    let err = String::from_utf8_lossy(&bad.stderr);
    assert!(err.contains("unreadable header"), "{err}");

    let missing = snapshot(&["info", dir.join("nope.lclg").display().to_string().as_str()]);
    assert_eq!(missing.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stream_publishes_a_store_matching_the_monolithic_freeze() {
    let dir = tempdir("stream");
    let store = dir.join("pods.shards");
    let store_str = store.display().to_string();
    let out = snapshot(&["stream", "pods-p4x0", "64", "1", &store_str]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let line = String::from_utf8_lossy(&out.stdout);
    assert!(line.contains("n=64"), "{line}");
    assert!(line.contains("16 shard(s)"), "{line}");
    assert!(store.join("shards.json").is_file());

    // The stream's hash equals the monolithic freeze of the same cell.
    let image = dir.join("pods.lclg");
    let image_str = image.display().to_string();
    let froze = snapshot(&["freeze", "pods-p4x0", "64", "1", &image_str]);
    assert!(froze.status.success());
    let hash_of = |stdout: &[u8]| -> String {
        let text = String::from_utf8_lossy(stdout);
        let at = text.find("hash ").expect("hash in output") + "hash ".len();
        text[at..at + 16].to_string()
    };
    assert_eq!(hash_of(&out.stdout), hash_of(&froze.stdout));
    // With one shard, the store's image is the monolithic freeze, byte for
    // byte: the CLI's one streaming path.
    let one = dir.join("one.shards");
    let one_str = one.display().to_string();
    let out = snapshot(&["stream", "pods-p4x0", "64", "1", &one_str, "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 shard(s)"));
    let shard = std::fs::read(one.join("shard-0000.lclg")).unwrap();
    assert!(shard == std::fs::read(&image).unwrap(), "one-shard image differs from the freeze");

    // max-shards caps the image count; garbage values are usage errors.
    let capped = dir.join("capped.shards");
    let capped_str = capped.display().to_string();
    let out = snapshot(&["stream", "pods-p4x0", "64", "1", &capped_str, "3"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("3 shard(s)"));
    let bad = snapshot(&["stream", "pods-p4x0", "64", "1", &capped_str, "zero"]);
    assert_eq!(bad.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_instance_arguments_are_usage_errors() {
    let dir = tempdir("usage");
    let target = dir.join("out").display().to_string();
    for (slug, n, seed, why) in [
        ("no-such-family", "64", "1", "unknown family slug `no-such-family`"),
        ("torus", "sixty-four", "1", "bad n `sixty-four`"),
        ("torus", "64", "-1", "bad seed `-1`"),
    ] {
        for args in [
            vec!["freeze", slug, n, seed, &target],
            vec!["roundtrip", slug, n, seed],
            vec!["stream", slug, n, seed, &target],
        ] {
            let out = snapshot(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(stderr.contains(why), "{args:?}: {stderr}");
        }
    }
    assert!(!dir.join("out").exists(), "a usage error wrote output");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn commands_into_a_closed_pipe_exit_cleanly() {
    // The reader is gone before the child starts, so every write to its
    // stdout fails; the command's work is still done.
    let dir = tempdir("epipe");
    let image = dir.join("torus.lclg");
    let image_str = image.display().to_string();
    for args in [&["freeze", "torus", "64", "1", &image_str][..], &["info", &image_str]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_snapshot"))
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("snapshot binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    assert!(image.is_file(), "freeze wrote its image although nobody read its line");
    std::fs::remove_dir_all(&dir).ok();
}
