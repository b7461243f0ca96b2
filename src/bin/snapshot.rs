//! `snapshot` — the frozen-graph image CLI (CI's snapshot roundtrip gate).
//!
//! ```text
//! snapshot freeze <family-slug> <n> <seed> <path>   build + freeze an instance
//! snapshot check <path>                             load + validate (hash, bounds)
//! snapshot info <path>                              print header fields only
//! snapshot roundtrip <family-slug> <n> <seed>       freeze → load → byte-compare
//! snapshot stream <family-slug> <n> <seed> <dir> [max-shards]
//!                                                   stream-freeze to a sharded store
//! ```
//!
//! `check` exercises the full `Graph::load_frozen` validation surface —
//! magic, version, payload length, FNV content hash, CSR bounds — so a
//! corrupted image exits nonzero with the loader's message. `info` reads
//! **only the 32-byte header** (no tables are mapped or validated): the
//! cheap way to identify an image of any size. `roundtrip`
//! is self-contained: it builds the instance, freezes it to a temp file,
//! loads it back, and byte-compares both the structural graph and a
//! re-frozen image (the frozen format is canonical: freeze ∘ load ∘
//! freeze is the identity on bytes). `stream` never materializes the
//! graph: the generator emits straight into a `ShardedSnapshotWriter`
//! (bounded working memory — CI's huge-instance `ulimit -v` legs drive
//! it at n = 2²²), which writes its shard images and the monolithic hash
//! across the worker pool (`LCL_POOL_THREADS` pins its width; the store's
//! bytes are the same at any width). Family slugs are the scenario
//! layer's (`torus`, `hypercube`, `3-regular`, `caterpillar-40`,
//! `pods-p8x2`, …).
//!
//! Exit codes: 0 ok, 1 validation/roundtrip failure, 2 usage or output
//! error. Output goes through one writer whose errors are checked: a
//! reader that closes the pipe early ends the command with exit 0 instead
//! of a panic.

use lcl_graph::{snapshot_header, Graph, ShardedSnapshotWriter, DEFAULT_MAX_SHARDS};
use lcl_scenario::FamilySpec;
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: snapshot <command>
  freeze <family-slug> <n> <seed> <path>   build the instance and freeze it
  check <path>                             load + validate a frozen image
  info <path>                              print header fields (no table load)
  roundtrip <family-slug> <n> <seed>       freeze -> load -> byte-compare
  stream <family-slug> <n> <seed> <dir> [max-shards]
                                           stream-freeze to a sharded store";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    let out = &mut io::stdout();
    let result = match strs.as_slice() {
        ["freeze", slug, n, seed, path] => cmd_freeze(slug, n, seed, Path::new(path), out),
        ["check", path] => cmd_check(Path::new(path), out),
        ["info", path] => cmd_info(Path::new(path), out),
        ["roundtrip", slug, n, seed] => cmd_roundtrip(slug, n, seed, out),
        ["stream", slug, n, seed, dir] => cmd_stream(slug, n, seed, Path::new(dir), None, out),
        ["stream", slug, n, seed, dir, max] => {
            cmd_stream(slug, n, seed, Path::new(dir), Some(max), out)
        }
        _ => {
            eprintln!("snapshot: missing or unknown command\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result.and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        // The reader went away (`| head`): nothing left to say, not a failure.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("snapshot: {e}");
            ExitCode::from(2)
        }
    }
}

/// Parses the `<family-slug> <n> <seed>` arguments of `freeze`,
/// `roundtrip` and `stream`; an error is a usage error (exit 2).
fn parse_instance(slug: &str, n: &str, seed: &str) -> Result<(FamilySpec, usize, u64), String> {
    let family =
        FamilySpec::from_slug(slug).ok_or_else(|| format!("unknown family slug `{slug}`"))?;
    let n = n.parse().map_err(|_| format!("bad n `{n}`"))?;
    let seed = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
    Ok((family, n, seed))
}

fn build(slug: &str, n: &str, seed: &str) -> Result<Graph, String> {
    let (family, n, seed) = parse_instance(slug, n, seed)?;
    family.build(n, seed).map_err(|e| e.to_string())
}

fn cmd_freeze(
    slug: &str,
    n: &str,
    seed: &str,
    path: &Path,
    out: &mut impl Write,
) -> io::Result<ExitCode> {
    let g = match build(slug, n, seed) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("snapshot: {e}");
            return Ok(ExitCode::from(2));
        }
    };
    match g.freeze(path) {
        Ok(hash) => {
            writeln!(
                out,
                "froze {slug} n={} m={} to {} (hash {hash:016x})",
                g.node_count(),
                g.edge_count(),
                path.display()
            )?;
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("snapshot: freeze failed: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_check(path: &Path, out: &mut impl Write) -> io::Result<ExitCode> {
    match Graph::load_frozen(path) {
        Ok(g) => {
            writeln!(
                out,
                "ok: {} nodes, {} edges, hash {:016x}",
                g.node_count(),
                g.edge_count(),
                g.content_hash()
            )?;
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("snapshot: invalid image {}: {e}", path.display());
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_info(path: &Path, out: &mut impl Write) -> io::Result<ExitCode> {
    match snapshot_header(path) {
        Ok(h) => {
            writeln!(
                out,
                "{}: lclg v{} n={} m={} max_degree={} hash={:016x}",
                path.display(),
                h.version,
                h.n,
                h.m,
                h.max_degree,
                h.hash
            )?;
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("snapshot: unreadable header {}: {e}", path.display());
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_stream(
    slug: &str,
    n: &str,
    seed: &str,
    dir: &Path,
    max: Option<&str>,
    out: &mut impl Write,
) -> io::Result<ExitCode> {
    let parsed = parse_instance(slug, n, seed).and_then(|(family, n, seed)| {
        let max_shards = match max {
            None => DEFAULT_MAX_SHARDS,
            Some(s) => match s.parse() {
                Ok(k) if k >= 1 => k,
                _ => return Err(format!("bad max-shards `{s}` (want an integer >= 1)")),
            },
        };
        Ok((family, n, seed, max_shards))
    });
    let (family, n, seed, max_shards) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("snapshot: {e}");
            return Ok(ExitCode::from(2));
        }
    };
    let streamed = (|| -> Result<_, String> {
        let mut w = ShardedSnapshotWriter::create(dir, max_shards)
            .map_err(|e| format!("cannot start store in {}: {e}", dir.display()))?;
        family.build_into(n, seed, &mut w).map_err(|e| e.to_string())?;
        w.finish_with(&lcl_bench::Parallel).map_err(|e| format!("publish failed: {e}"))
    })();
    match streamed {
        Ok(s) => {
            writeln!(
                out,
                "streamed {slug} n={} m={} max_degree={} into {} shard(s) at {} (hash {:016x})",
                s.n,
                s.m,
                s.max_degree,
                s.shards,
                dir.display(),
                s.graph_hash
            )?;
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("snapshot: stream failed: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_roundtrip(slug: &str, n: &str, seed: &str, out: &mut impl Write) -> io::Result<ExitCode> {
    let g = match build(slug, n, seed) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("snapshot: {e}");
            return Ok(ExitCode::from(2));
        }
    };
    let dir = std::env::temp_dir();
    let a = dir.join(format!("snapshot-rt-{}-a.lclg", std::process::id()));
    let b = dir.join(format!("snapshot-rt-{}-b.lclg", std::process::id()));
    let result = roundtrip(&g, &a, &b);
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
    match result {
        Ok(hash) => {
            writeln!(
                out,
                "roundtrip ok: {slug} n={} m={} hash {hash:016x}",
                g.node_count(),
                g.edge_count()
            )?;
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("snapshot: roundtrip failed: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn roundtrip(g: &Graph, a: &Path, b: &Path) -> Result<u64, String> {
    let hash = g.freeze(a).map_err(|e| format!("freeze: {e}"))?;
    let loaded = Graph::load_frozen(a).map_err(|e| format!("load: {e}"))?;
    if &loaded != g {
        return Err("loaded graph differs structurally from the original".into());
    }
    if loaded.content_hash() != hash {
        return Err("loaded content hash differs from the frozen header".into());
    }
    loaded.freeze(b).map_err(|e| format!("re-freeze: {e}"))?;
    let bytes_a = std::fs::read(a).map_err(|e| e.to_string())?;
    let bytes_b = std::fs::read(b).map_err(|e| e.to_string())?;
    if bytes_a != bytes_b {
        return Err("re-frozen image is not byte-identical".into());
    }
    Ok(hash)
}
