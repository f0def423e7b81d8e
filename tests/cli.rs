//! End-to-end test of the `netclust` command-line binary: synthesize a
//! dataset to disk, then cluster it back from the files — the full
//! file-based workflow a downstream user runs.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use netclust_testkit::TempDir;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_netclust")
}

#[test]
fn synth_then_cluster_roundtrip() {
    let dir = TempDir::new("netclust-cli-test-roundtrip");
    let out = Command::new(bin())
        .args(["synth", "--out"])
        .arg(&dir)
        .args(["--seed", "9", "--requests", "20000", "--clients", "600"])
        .output()
        .expect("run synth");
    assert!(
        out.status.success(),
        "synth failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let log = dir.join("access.log");
    assert!(log.exists());
    // 12 BGP tables + 2 dumps written.
    let bgp: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".bgp"))
        .collect();
    let dumps: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".dump"))
        .collect();
    assert_eq!(bgp.len(), 12, "{bgp:?}");
    assert_eq!(dumps.len(), 2, "{dumps:?}");

    let tables = bgp
        .iter()
        .map(|n| dir.join(n).to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join(",");
    let dump_list = dumps
        .iter()
        .map(|n| dir.join(n).to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join(",");
    let out = Command::new(bin())
        .args(["cluster", "--log"])
        .arg(&log)
        .args(["--table", &tables, "--dump", &dump_list, "--top", "5"])
        .output()
        .expect("run cluster");
    assert!(
        out.status.success(),
        "cluster failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("merged table:"), "{stdout}");
    assert!(stdout.contains("clusters"), "{stdout}");
    assert!(stdout.contains("busy clusters covering 70%"), "{stdout}");
    // The top-cluster table prints CIDR prefixes.
    assert!(
        stdout.lines().any(|l| l.contains('/') && l.contains('.')),
        "{stdout}"
    );
}

#[test]
fn cluster_simple_method_needs_no_tables() {
    let dir = TempDir::new("netclust-cli-test-simple");
    let status = Command::new(bin())
        .args(["synth", "--out"])
        .arg(&dir)
        .args(["--seed", "4", "--requests", "5000", "--clients", "200"])
        .status()
        .expect("run synth");
    assert!(status.success());
    let out = Command::new(bin())
        .args(["cluster", "--method", "simple", "--log"])
        .arg(dir.join("access.log"))
        .output()
        .expect("run cluster simple");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("clusters"), "{stdout}");
}

#[test]
fn bad_usage_fails_cleanly() {
    // Bare invocation: usage error, exit code 2.
    let out = Command::new(bin()).output().expect("run bare");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Missing log file: input error, exit code 1, stderr names the file.
    let out = Command::new(bin())
        .args([
            "cluster",
            "--log",
            "/nonexistent/file.log",
            "--method",
            "simple",
        ])
        .output()
        .expect("run with missing file");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("/nonexistent/file.log"), "{stderr}");

    // Unknown method: usage error, exit code 2.
    let out = Command::new(bin())
        .args(["cluster", "--log", "x", "--method", "bogus"])
        .output()
        .expect("run with bad method");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bogus"));

    // Tables are aware-only: usage error before any I/O.
    let out = Command::new(bin())
        .args([
            "cluster", "--log", "x", "--method", "simple", "--table", "t",
        ])
        .output()
        .expect("run with aware-only flag");
    assert_eq!(out.status.code(), Some(2));
}

/// `--clients` beyond what the default universe holds is refused by name,
/// with the count that did fit — not a panic — and writes nothing.
#[test]
fn synth_refuses_more_clients_than_the_universe_holds() {
    let parent = TempDir::new("netclust-cli-test-crowd");
    let dir = parent.join("out");
    let dir_arg = dir.to_string_lossy().into_owned();
    let stderr = usage_error(&["synth", "--out", &dir_arg, "--clients", "15000"]);
    let room = stderr
        .strip_prefix("netclust: usage: synth: --clients got \"15000\": ")
        .and_then(|why| why.strip_prefix("universe too small: its organizations ran out after "))
        .and_then(|rest| rest.trim_end().strip_suffix(" clients"))
        .unwrap_or_else(|| panic!("{stderr}"));
    let room: u64 = room.parse().expect("a client count");
    assert!((2_000..15_000).contains(&room), "{stderr}");
    assert!(!dir.exists(), "a refused synth left {dir_arg} behind");
}

/// A reader that goes away (`| head`) stops either sub-command cleanly:
/// exit 0 and nothing on stderr, not a `println!` panic.
#[test]
fn a_closed_stdout_pipe_is_a_clean_stop() {
    let dir = TempDir::new("netclust-cli-test-pipe");
    let synth = |out: &Path| {
        let mut cmd = Command::new(bin());
        cmd.args(["synth", "--out"]).arg(out);
        // 6 000 clients are some 2 500 /24s: 2 000 rows are ≈ 100 kB, more
        // than a pipe holds, so the child is still writing when the reader goes.
        cmd.args(["--seed", "6", "--requests", "30000", "--clients", "6000"]);
        cmd
    };
    assert!(synth(&dir).status().expect("run synth").success());
    let mut cluster = Command::new(bin());
    cluster.args(["cluster", "--method", "simple", "--top", "2000", "--log"]);
    cluster.arg(dir.join("access.log"));
    for mut cmd in [cluster, synth(&dir.join("again"))] {
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn");
        // One line, then the read end closes with output still to come.
        let mut stdout = BufReader::with_capacity(16, child.stdout.take().expect("piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("first line");
        assert!(!line.is_empty());
        drop(stdout);
        let mut stderr = String::new();
        let mut pipe = child.stderr.take().expect("piped");
        pipe.read_to_string(&mut stderr).expect("stderr");
        let status = child.wait().expect("wait");
        assert_eq!(status.code(), Some(0), "{cmd:?}: {stderr}");
        assert!(stderr.is_empty(), "{cmd:?}: {stderr}");
    }
}

/// A numeric flag whose value does not parse is a usage error naming the
/// flag — never a silent fall-back to the default — and is decided before
/// any input is opened.
#[test]
fn unparsable_numeric_flags_are_usage_errors() {
    let synth = "synth --out /nonexistent/out";
    let cluster = "cluster --log /nonexistent/file.log";
    let feed = "--table t --bgp-feed synth:1:1 --state-dir s";
    for line in [
        format!("{synth} --seed x"),
        format!("{synth} --requests 1e6"),
        format!("{synth} --clients -3"),
        format!("{cluster} --top abc"),
        format!("{cluster} --threads 0"),
        format!("{cluster} --max-error-rate lots"),
        format!("{cluster} {feed} --crash-after-batch soon"),
    ] {
        let args: Vec<&str> = line.split(' ').collect();
        let flag = args[args.len() - 2];
        let out = Command::new(bin())
            .args(&args)
            .output()
            .expect("run with bad number");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert!(stderr.contains(flag), "{line}: {stderr}");
    }
}

#[test]
fn metrics_snapshot_is_deterministic_and_trace_prints_spans() {
    let dir = TempDir::new("netclust-cli-test-metrics");
    let status = Command::new(bin())
        .args(["synth", "--out"])
        .arg(&dir)
        .args(["--seed", "11", "--requests", "8000", "--clients", "300"])
        .status()
        .expect("run synth");
    assert!(status.success());
    let log = dir.join("access.log");
    let table: PathBuf = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "bgp"))
        .expect("synth wrote a BGP table");

    let table = table.to_str().expect("utf-8");
    let run = |how: &[&str], metrics: &PathBuf| {
        let out = Command::new(bin())
            .args(["cluster", "--log"])
            .arg(&log)
            .args(how)
            .arg("--metrics")
            .arg(metrics)
            .args(["--trace", "--deterministic"])
            .output()
            .expect("run cluster with metrics");
        assert!(
            out.status.success(),
            "cluster failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };

    let (m1, m2) = (dir.join("obs1.json"), dir.join("obs2.json"));
    let out = run(&["--table", table], &m1);
    run(&["--table", table], &m2);

    // Two deterministic runs: byte-identical OBS.json.
    let a = std::fs::read(&m1).expect("metrics written");
    let b = std::fs::read(&m2).expect("metrics written");
    assert!(!a.is_empty());
    assert_eq!(a, b, "deterministic metrics differed between runs");

    // The snapshot carries the advertised sections and metric families.
    let json = String::from_utf8(a).expect("metrics are UTF-8");
    for key in [
        "\"version\"",
        "\"deterministic\": true",
        "\"counters\"",
        "\"histograms\"",
        "\"spans\"",
        "\"ingest.lines\"",
        "\"lpm.lookups\"",
        "\"ingest.run\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }

    // --trace printed the span table with the nested stage paths.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("span"), "{stdout}");
    assert!(stdout.contains("ingest.run"), "{stdout}");
    assert!(stdout.contains("ingest.run/"), "{stdout}");

    // The baselines run the same pipeline: the same span paths, and two
    // deterministic snapshots equal with nothing schedule-dependent in them.
    let simple = |metrics: &PathBuf| {
        let out = run(&["--method", "simple", "--threads", "2"], metrics);
        let json = std::fs::read_to_string(metrics).expect("metrics");
        (out.stdout, json)
    };
    let (first, second) = (simple(&m1), simple(&m2));
    assert_eq!(first, second);
    let (stdout, json) = first;
    assert!(String::from_utf8_lossy(&stdout).contains("ingest.run/parse"));
    assert!(json.contains("\"ingest.lines\""), "{json}");
    assert!(!json.contains("ingest.shard"), "{json}");
}

#[test]
fn missing_table_file_names_the_file() {
    let dir = TempDir::new("netclust-cli-test-missing-table");
    std::fs::write(dir.join("access.log"), "").expect("write empty log");
    let out = Command::new(bin())
        .args(["cluster", "--log"])
        .arg(dir.join("access.log"))
        .args(["--table", "/nonexistent/table.bgp"])
        .output()
        .expect("run with missing table");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("/nonexistent/table.bgp"), "{stderr}");
}

/// A table file's unparsable lines, a non-UTF-8 one among them, are one
/// note on stderr naming the file; the clean dump gets none, and stdout
/// counts both tiers and both files.
#[test]
fn a_noisy_table_file_is_one_note() {
    let dir = TempDir::new("netclust-cli-test-noisy-table");
    let log_path = dir.join("access.log");
    std::fs::write(
        &log_path,
        "12.65.147.94 - - [13/Feb/1998:07:00:00 +0000] \"GET /a HTTP/1.0\" 200 120 \"-\" \"Mozilla/4.5\"\n\
         24.48.3.87 - - [13/Feb/1998:07:00:01 +0000] \"GET /b HTTP/1.0\" 200 80 \"-\" \"Mozilla/4.5\"\n",
    )
    .expect("write log");
    let (table, dump) = (dir.join("t.bgp"), dir.join("t.dump"));
    let mut noisy = b"# scraped\n12.65.128.0/19 hop 7018\nnot-a-prefix\n6.0.0.0/8\n".to_vec();
    noisy.extend_from_slice(b"999.1.2.3/8\n10.1.0.0/1\xff6\n\n");
    std::fs::write(&table, noisy).expect("write table");
    std::fs::write(&dump, "24.0.0.0/8\n12.0.0.0/8\n").expect("write dump");
    let out = Command::new(bin())
        .args(["cluster", "--log"])
        .arg(&log_path)
        .arg("--table")
        .arg(&table)
        .arg("--dump")
        .arg(&dump)
        .output()
        .expect("run over a noisy table");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let note = format!("note: {}: skipped 3 unparsable lines\n", table.display());
    assert_eq!(stderr, note);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("merged table: 2 BGP + 2 registry prefixes from 2 files\n"),
        "{stdout}"
    );
}

#[test]
fn error_budget_and_quarantine() {
    let dir = TempDir::new("netclust-cli-test-budget");
    // A log that is half garbage against a tiny real table.
    let log_path = dir.join("noisy.log");
    std::fs::write(
        &log_path,
        "12.65.147.94 - - [13/Feb/1998:07:00:00 +0000] \"GET /a HTTP/1.0\" 200 120\n\
         utter garbage line\n\
         12.65.144.247 - - [13/Feb/1998:07:00:01 +0000] \"GET /b HTTP/1.0\" 200 80\n\
         more garbage\n",
    )
    .expect("write noisy log");
    let table_path = dir.join("t.bgp");
    std::fs::write(&table_path, "12.65.128.0/19\n").expect("write table");
    let table_arg = table_path.to_string_lossy().into_owned();

    // Budget exceeded: exit code 3, stderr explains the ratio.
    let out = Command::new(bin())
        .args(["cluster", "--log"])
        .arg(&log_path)
        .args(["--table", &table_arg, "--max-error-rate", "0.25"])
        .output()
        .expect("run over budget");
    assert_eq!(out.status.code(), Some(3), "{:?}", out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("malformed"), "{stderr}");

    // Under budget with a quarantine sink: success, rejected lines land
    // in the file byte-for-byte.
    let q_path = dir.join("rejects.log");
    let out = Command::new(bin())
        .args(["cluster", "--log"])
        .arg(&log_path)
        .args(["--table", &table_arg, "--max-error-rate", "0.75"])
        .arg("--quarantine")
        .arg(&q_path)
        .output()
        .expect("run with quarantine");
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let quarantined = std::fs::read_to_string(&q_path).expect("quarantine written");
    assert_eq!(quarantined, "utter garbage line\nmore garbage\n");
}

/// `--max-error-rate` is a fraction from 0 to 1 and nothing else: NaN, a
/// negative, a ratio above 1 and infinity are usage errors naming the
/// flag, never a budget silently turned off or clamped.
#[test]
fn max_error_rate_outside_zero_to_one_is_a_usage_error() {
    let dir = TempDir::new("netclust-cli-test-budget-range");
    // 400 lines, every other one garbage: a malformed ratio of 0.5.
    let log_path = dir.join("half.log");
    let line =
        "12.65.147.94 - - [13/Feb/1998:07:00:00 +0000] \"GET /a HTTP/1.0\" 200 120 \"-\" \"UA\"\n";
    std::fs::write(&log_path, format!("{line}garbage\n").repeat(200)).expect("write log");
    let table_path = dir.join("t.bgp");
    std::fs::write(&table_path, "12.65.128.0/19\n").expect("write table");
    let run = |rate: &str| {
        Command::new(bin())
            .args(["cluster", "--log"])
            .arg(&log_path)
            .arg("--table")
            .arg(&table_path)
            .args(["--max-error-rate", rate])
            .output()
            .expect("run cluster")
    };
    for (rate, code) in [("0.1", 3), ("0", 3), ("0.5", 0), ("1", 0)] {
        let out = run(rate);
        assert_eq!(out.status.code(), Some(code), "{rate}: {out:?}");
    }
    for rate in ["nan", "NaN", "-1", "2", "inf", "-inf", "1.0000001"] {
        let out = run(rate);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{rate}: {stderr}");
        assert!(stderr.contains("--max-error-rate"), "{rate}: {stderr}");
    }
}

#[test]
fn persistence_flags_validate_before_any_io() {
    // --state-dir needs a feed to persist.
    let out = Command::new(bin())
        .args(["cluster", "--log", "x", "--table", "t", "--state-dir", "s"])
        .output()
        .expect("state-dir without feed");
    assert_eq!(out.status.code(), Some(2), "{:?}", out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--bgp-feed"));

    // The companion flags need --state-dir.
    for extra in [
        &["--resume"][..],
        &["--fsync", "os"][..],
        &["--crash-after-batch", "3"][..],
    ] {
        let out = Command::new(bin())
            .args(["cluster", "--log", "x", "--table", "t"])
            .args(extra)
            .output()
            .expect("companion flag without state-dir");
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("--state-dir"));
    }

    // Malformed policy / count values.
    let base = [
        "cluster",
        "--log",
        "x",
        "--table",
        "t",
        "--bgp-feed",
        "synth:1:1",
        "--state-dir",
        "s",
    ];
    let out = Command::new(bin())
        .args(base)
        .args(["--fsync", "sometimes"])
        .output()
        .expect("bad fsync policy");
    assert_eq!(out.status.code(), Some(2), "{:?}", out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("sometimes"));
    let out = Command::new(bin())
        .args(base)
        .args(["--crash-after-batch", "0"])
        .output()
        .expect("bad crash count");
    assert_eq!(out.status.code(), Some(2), "{:?}", out);
}

#[test]
fn resume_without_valid_snapshot_exits_four() {
    let dir = TempDir::new("netclust-cli-test-exit-four");
    let out = Command::new(bin())
        .args(["synth", "--out"])
        .arg(&dir)
        .args(["--seed", "3", "--requests", "2000", "--clients", "80"])
        .output()
        .expect("run synth");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "bgp"))
        .expect("a bgp table");
    // A state directory whose only snapshot is garbage: recovery scans it,
    // rejects it, and the process exits with the dedicated code 4.
    let state = dir.join("state");
    std::fs::create_dir_all(&state).unwrap();
    std::fs::write(state.join("snapshot-000001.snap"), b"not a snapshot").unwrap();
    let out = Command::new(bin())
        .args(["cluster", "--log"])
        .arg(dir.join("access.log"))
        .arg("--table")
        .arg(&table)
        .args(["--bgp-feed", "synth:1:3", "--state-dir"])
        .arg(&state)
        .arg("--resume")
        .output()
        .expect("resume from garbage");
    assert_eq!(out.status.code(), Some(4), "{:?}", out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unrecoverable"), "{stderr}");
}

/// The rows of one sub-command as `netclust --help` prints them: (name,
/// takes a value, repeatable). Read off the generated text, so a new row is
/// in every loop below without anyone remembering to add it.
fn rows(help: &str, command: &str) -> Vec<(String, bool, bool)> {
    let section = help.split(&format!("\n{command} ")).nth(1).expect(command);
    let options = section.split("options:\n").nth(1).expect("options");
    let options = options.split("\n\n").next().expect("rows");
    let lines: Vec<&str> = options.lines().collect();
    let mut rows = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(rest) = line.strip_prefix("  --") else {
            continue;
        };
        let (name, rest) = rest.split_once(' ').unwrap_or((rest, ""));
        // A wide left column pushes the help one line down.
        let next = lines.get(i + 1).filter(|next| !next.starts_with("  --"));
        let help_text = next.unwrap_or(line);
        rows.push((
            format!("--{name}"),
            !rest.is_empty() && !rest.starts_with(' '),
            help_text.ends_with("(repeatable)"),
        ));
    }
    rows
}

fn usage_error(args: &[&str]) -> String {
    let out = Command::new(bin()).args(args).output().expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    stderr
}

#[test]
fn help_is_generated_and_the_readme_quotes_it() {
    let out = Command::new(bin()).arg("--help").output().expect("help");
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8(out.stdout).expect("utf-8");
    let names = |command| -> Vec<String> {
        let rows = rows(&help, command);
        rows.into_iter().map(|(name, ..)| name).collect()
    };
    // The accepted flag sets, pinned: a flag added, dropped or renamed
    // has to be changed here too.
    assert_eq!(
        names("netclust synth"),
        ["--out", "--seed", "--requests", "--clients"]
    );
    assert_eq!(
        names("netclust cluster"),
        [
            "--log",
            "--table",
            "--dump",
            "--method",
            "--top",
            "--lookup",
            "--verdict",
            "--max-error-rate",
            "--quarantine",
            "--metrics",
            "--trace",
            "--threads",
            "--deterministic",
            "--bgp-feed",
            "--state-dir",
            "--resume",
            "--fsync",
            "--crash-after-batch"
        ]
    );
    assert!(help.contains("  --fsync every_batch | every_n:<N> | os\n"));

    // Each sub-command prints its own section of the same text.
    for command in ["synth", "cluster"] {
        for flag in ["--help", "-h"] {
            let out = Command::new(bin()).args([command, flag]).output();
            let out = out.expect("sub-command help");
            assert_eq!(out.status.code(), Some(0), "{command} {flag}");
            let own = String::from_utf8(out.stdout).expect("utf-8");
            assert!(own.starts_with(&format!("netclust {command} ")), "{own}");
            assert!(
                help.contains(&own),
                "{command} {flag} is not a section of --help"
            );
        }
    }

    let readme = include_str!("../README.md");
    assert!(
        readme.contains(&format!("```text\n{help}```")),
        "README.md Command line: paste the output of `netclust --help`"
    );
    // The API example is the facade's doctest, which compiles it.
    let docs: String = include_str!("../src/lib.rs")
        .lines()
        .filter_map(|line| line.strip_prefix("//!"))
        .filter(|line| !line.starts_with(" # "))
        .map(|line| format!("{}\n", line.strip_prefix(' ').unwrap_or(line)))
        .collect();
    let example = readme
        .split("```rust\n")
        .nth(1)
        .and_then(|b| b.split("```").next());
    assert!(
        docs.contains(&format!("```no_run\n{}```", example.expect("a rust block"))),
        "README.md Minimal API usage: paste the doctest of src/lib.rs"
    );
}

#[test]
fn every_row_of_both_tables_is_validated() {
    let out = Command::new(bin()).arg("--help").output().expect("help");
    let help = String::from_utf8(out.stdout).expect("utf-8");
    for command in ["synth", "cluster"] {
        let rows = rows(&help, &format!("netclust {command}"));
        assert!(!rows.is_empty());
        for (name, takes_value, repeatable) in rows {
            let name = name.as_str();
            if takes_value {
                // Last on the line, and right before another flag.
                for tail in [&[name][..], &[name, "--nope"][..]] {
                    let stderr = usage_error(&[&[command], tail].concat());
                    assert!(
                        stderr.contains(&format!("{name} needs a value")),
                        "{stderr}"
                    );
                }
            }
            let twice: Vec<&str> = if takes_value {
                vec![command, name, "x", name, "x"]
            } else {
                vec![command, name, name]
            };
            let stderr = usage_error(&twice);
            let refused = stderr.contains(&format!("{name} given more than once"));
            assert_eq!(refused, !repeatable, "{twice:?}: {stderr}");
        }
        // A misspelt flag is refused by name, not ignored.
        let stderr = usage_error(&[command, "--tpo", "5"]);
        assert!(stderr.contains("unknown flag \"--tpo\""), "{stderr}");
    }
    for tail in ["--tpo 5", "--top", "--top 5 --top 6"] {
        let line = format!("cluster --log l --table t {tail}");
        let stderr = usage_error(&line.split(' ').collect::<Vec<_>>());
        assert!(stderr.contains(&tail[..5]), "{line}: {stderr}");
    }
    assert!(usage_error(&["--nope"]).contains("--nope"));
}

/// Every constraint row, violated by each of its flags, with the whole
/// stderr line pinned: scripts match on these. What only a table can do is
/// refused to the baselines by name — a `--table` they would never read
/// included; everything else they take, being the same pipeline.
#[test]
fn constraint_messages_are_unchanged() {
    let aware = "cluster: --table/--dump/--bgp-feed only apply to --method aware, not \"simple\"";
    let needs_dir = "cluster: --resume/--fsync/--crash-after-batch require --state-dir";
    for (args, message) in [
        (
            "--method simple --table /nonexistent.bgp",
            aware.to_string(),
        ),
        (
            "--method classful --dump d",
            aware.replace("simple", "classful"),
        ),
        ("--method simple --bgp-feed synth:1:1", aware.to_string()),
        (
            "--table t --state-dir s",
            "cluster: --state-dir requires --bgp-feed".to_string(),
        ),
        ("--table t --resume", needs_dir.to_string()),
        ("--table t --fsync os", needs_dir.to_string()),
        ("--table t --crash-after-batch 3", needs_dir.to_string()),
    ] {
        let args: Vec<&str> = "cluster --log x"
            .split(' ')
            .chain(args.split(' '))
            .collect();
        let stderr = usage_error(&args);
        assert_eq!(stderr, format!("netclust: usage: {message}\n"), "{args:?}");
    }
    // The policy error is the policy's own Display, grammar included.
    let feed = "cluster --log x --table t --bgp-feed synth:1:1 --state-dir s --fsync every-batch";
    let stderr = usage_error(&feed.split(' ').collect::<Vec<_>>());
    assert!(
        stderr.contains("every_batch | every_n:<N> | os"),
        "{stderr}"
    );
    assert!(!stderr.contains("FsyncParseError"), "{stderr}");

    // The five flags the baselines used to be refused now run, and the
    // budget binds them too: one line in three is over 25 %.
    let dir = TempDir::new("netclust-cli-test-baseline-flags");
    let log = dir.join("access.log");
    let line =
        |ip: &str| format!("{ip} - - [13/Feb/1998:07:00:00 +0000] \"GET /a HTTP/1.0\" 200 9\n");
    let text = format!(
        "{}torn line\n{}",
        line("12.65.147.94"),
        line("151.198.194.17")
    );
    std::fs::write(&log, text).expect("write log");
    let (q, m) = (dir.join("q.log"), dir.join("m.json"));
    for (method, flags, code) in [
        ("simple", vec!["--max-error-rate", "0.5"], 0),
        (
            "simple",
            vec!["--quarantine", q.to_str().expect("utf-8")],
            0,
        ),
        ("simple", vec!["--metrics", m.to_str().expect("utf-8")], 0),
        ("classful", vec!["--trace"], 0),
        ("simple", vec!["--threads", "2"], 0),
        ("classful", vec!["--max-error-rate", "0.25"], 3),
    ] {
        let out = Command::new(bin())
            .args(["cluster", "--method", method, "--log"])
            .arg(&log)
            .args(&flags)
            .output()
            .expect("run a baseline");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(code), "{method} {flags:?}: {out:?}");
        assert_eq!(
            stdout.contains("2 clients -> 2 clusters"),
            code == 0,
            "{stdout}"
        );
    }
    assert_eq!(
        std::fs::read_to_string(&q).expect("quarantine"),
        "torn line\n"
    );
    assert!(std::fs::read_to_string(&m)
        .expect("metrics")
        .contains("\"ingest.malformed\": 1"));
}
