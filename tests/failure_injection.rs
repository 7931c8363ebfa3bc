//! Integration: failure injection. A panicking simulated processor or
//! rank must fail the whole run promptly and visibly — never hang the
//! engine or silently drop work — and malformed inputs must be rejected
//! at the boundary with a typed error, never a panic.

use commchar::apps::{AppError, AppId, Scale};
use commchar::core::suite::{cell_matrix, SuiteRunner};
use commchar::core::{acquire, RunError, RunSpec};
use commchar::mesh::{EngineError, EngineKind, MeshConfig, NetTally};
use commchar::serve::{ServeClient, ServeConfig, ServeError, Server};
use commchar::sp2::{run_mp, Sp2Config};
use commchar::spasm::{run, MachineConfig};
use commchar::trace::replay::{CausalReplayer, ReplayError};
use commchar::trace::{CommEvent, CommTrace, EventKind, MAX_NODES};
use commchar::tracestore::{
    pack_trace, PackedReader, StreamBlockReader, TraceStoreError, TraceWriter,
};

fn catches_panic<F: FnOnce() + std::panic::UnwindSafe>(f: F) -> bool {
    std::panic::catch_unwind(f).is_err()
}

#[test]
fn spasm_processor_panic_propagates() {
    let failed = catches_panic(|| {
        run(
            MachineConfig::new(4),
            |m| m.alloc(16),
            |mut ctx, r| async move {
                if ctx.proc_id() == 2 {
                    panic!("injected application fault");
                }
                // Other processors block on a barrier the faulty one never
                // reaches; the engine must detect the death, not hang.
                ctx.write(r, ctx.proc_id(), 1).await;
                ctx.barrier(0).await;
            },
            NetTally::new(),
        );
    });
    assert!(failed, "engine must propagate a processor panic");
}

#[test]
fn spasm_panic_before_any_traffic_propagates() {
    let failed = catches_panic(|| {
        run(
            MachineConfig::new(2),
            |m| m.alloc(4),
            |ctx, _| async move {
                if ctx.proc_id() == 0 {
                    panic!("immediate fault");
                }
            },
            NetTally::new(),
        );
    });
    assert!(failed);
}

/// Runs `f`, which must panic, and returns the panic message.
fn panic_message<F: FnOnce() + std::panic::UnwindSafe>(f: F) -> String {
    let payload = std::panic::catch_unwind(f).expect_err("expected a panic");
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload.downcast_ref::<&str>().expect("a string payload").to_string(),
    }
}

#[test]
fn spasm_panic_carries_the_body_payload() {
    // The body's panic unwinds through the shard's poll to the caller
    // unchanged, serial and sharded alike. At `--sim-jobs 2` processor 2
    // is in shard 1 and processor 0 in shard 0, the coordinator that owns
    // the network engine and the trace.
    for faulty in [2, 0] {
        for sim_jobs in [1, 2] {
            let msg = panic_message(|| {
                run(
                    MachineConfig::new(4).with_sim_jobs(sim_jobs),
                    |m| m.alloc(16),
                    |mut ctx, r| async move {
                        ctx.write(r, ctx.proc_id(), 1).await;
                        if ctx.proc_id() == faulty {
                            panic!("injected application fault");
                        }
                        ctx.barrier(0).await;
                    },
                    NetTally::new(),
                );
            });
            assert_eq!(msg, "injected application fault", "p{faulty} sim_jobs {sim_jobs}");
        }
    }
}

#[test]
fn spasm_body_awaiting_a_foreign_future_is_named_as_misuse() {
    // A body may await only Ctx traps: suspending on anything else would
    // leave its shard with no request to schedule.
    for sim_jobs in [1, 2] {
        let msg = panic_message(|| {
            run(
                MachineConfig::new(2).with_sim_jobs(sim_jobs),
                |m| m.alloc(4),
                |mut ctx, _| async move {
                    if ctx.proc_id() == 1 {
                        std::future::pending::<()>().await;
                    }
                    ctx.barrier(0).await;
                },
                NetTally::new(),
            );
        });
        assert!(
            msg.contains("p1") && msg.contains("not a spasm Ctx trap"),
            "sim_jobs {sim_jobs}: {msg}"
        );
    }
}

#[test]
fn sp2_rank_panic_propagates() {
    // Rank 0 waits for rank 1's contribution; the runtime must hand the
    // caller rank 1's own panic, not deadlock or replace the payload.
    let msg = panic_message(|| {
        run_mp(Sp2Config::new(4), |mut r| async move {
            if r.rank() == 1 {
                panic!("injected rank fault");
            }
            let _ = r.reduce_sum(0, &[1.0]).await;
        });
    });
    assert_eq!(msg, "injected rank fault");
}

#[test]
fn sp2_receive_nobody_sends_is_named_not_hung() {
    // Every other rank finishes; rank 0 is left parked on a receive that
    // can never match.
    let msg = panic_message(|| {
        run_mp(Sp2Config::new(4), |mut r| async move {
            if r.rank() == 0 {
                let _ = r.recv(2, 9).await;
            }
        });
    });
    assert!(msg.contains("rank 0") && msg.contains("(src 2, tag 9)"), "{msg}");
}

#[test]
fn sp2_body_awaiting_a_foreign_future_is_named_as_misuse() {
    // A body may await only receives: suspending on anything else would
    // leave the poll loop with nothing to wake it.
    let msg = panic_message(|| {
        run_mp(Sp2Config::new(2), |mut r| async move {
            if r.rank() == 1 {
                std::future::pending::<()>().await;
            }
            r.barrier().await;
        });
    });
    assert!(msg.contains("rank 1") && msg.contains("not an sp2 receive"), "{msg}");
}

#[test]
fn out_of_bounds_shared_access_is_caught() {
    let failed = catches_panic(|| {
        run(
            MachineConfig::new(2),
            |m| m.alloc(8),
            |mut ctx, r| async move {
                let _ = ctx.read(r, 64).await; // past the region
            },
            NetTally::new(),
        );
    });
    assert!(failed);
}

#[test]
fn malformed_traces_are_rejected_not_replayed() {
    // Dependency cycle (mutual) — impossible in a real execution.
    let cyc = concat!(
        "{\"nodes\":2}\n",
        "{\"id\":0,\"t\":5,\"src\":0,\"dst\":1,\"bytes\":8,\"kind\":\"data\",\"dep\":1}\n",
        "{\"id\":1,\"t\":5,\"src\":1,\"dst\":0,\"bytes\":8,\"kind\":\"data\",\"dep\":0}\n",
    );
    assert!(CommTrace::from_jsonl(cyc).is_err());

    // Self-message.
    let selfmsg = concat!(
        "{\"nodes\":2}\n",
        "{\"id\":0,\"t\":5,\"src\":1,\"dst\":1,\"bytes\":8,\"kind\":\"data\"}\n",
    );
    assert!(CommTrace::from_jsonl(selfmsg).is_err());

    // Unknown kind.
    let badkind = concat!(
        "{\"nodes\":2}\n",
        "{\"id\":0,\"t\":5,\"src\":0,\"dst\":1,\"bytes\":8,\"kind\":\"telepathy\"}\n",
    );
    assert!(CommTrace::from_jsonl(badkind).is_err());
}

#[test]
fn deadlocked_application_is_detected() {
    // One processor waits on a lock nobody releases while all the others
    // finish: the engine must panic with the deadlock diagnostic instead
    // of hanging.
    let failed = catches_panic(|| {
        run(
            MachineConfig::new(2),
            |m| m.alloc(1),
            |mut ctx, _| async move {
                if ctx.proc_id() == 0 {
                    ctx.lock(7).await;
                    // Never unlocks; finishes holding the lock.
                } else {
                    ctx.compute(10_000);
                    ctx.lock(7).await; // waits forever
                }
            },
            NetTally::new(),
        );
    });
    assert!(failed, "engine must detect the blocked processor");
}

/// The `acquire` error for `app` on `procs` processors at tiny scale.
fn acquire_err(app: AppId, procs: usize) -> AppError {
    match acquire(&RunSpec::new(app, procs, Scale::Tiny, 1)) {
        Err(RunError::App(e)) => e,
        other => panic!("{app} on {procs}: expected an AppError, got {other:?}"),
    }
}

#[test]
fn acquire_rejects_each_precondition_class_before_running() {
    for (app, procs) in [(AppId::Fft1d, 3), (AppId::Mg, 6)] {
        assert_eq!(acquire_err(app, procs), AppError::NotPowerOfTwo { app: app.name(), procs });
    }
    assert_eq!(
        acquire_err(AppId::Fft3d, 64),
        AppError::Indivisible { app: "3d-fft", procs: 64, what: "z-planes", size: 8 }
    );
    for app in [AppId::Halo, AppId::Allreduce] {
        assert_eq!(
            acquire_err(app, 1),
            AppError::TooFewProcs { app: app.name(), procs: 1, min: 2 }
        );
    }
    for procs in [0, MAX_NODES + 1] {
        for &app in AppId::all() {
            assert_eq!(acquire_err(app, procs), AppError::ProcsOutOfRange { procs });
        }
    }
    // The message names the problem for the CLI's `error:` line.
    let msg = acquire_err(AppId::Fft1d, 3).to_string();
    assert!(msg.contains("power-of-two") && msg.contains('3'), "{msg}");
}

#[test]
fn check_and_the_kernel_assert_share_one_precondition() {
    // The kernel's run path panics with exactly the error `check`
    // reports, so the two can never disagree.
    let err = AppId::Fft3d.check(64, Scale::Tiny).unwrap_err();
    let panic = std::panic::catch_unwind(|| {
        AppId::Fft3d.run_net(64, Scale::Tiny, EngineKind::Recurrence, 1, MeshConfig::for_nodes(64))
    })
    .unwrap_err();
    assert_eq!(panic.downcast_ref::<String>(), Some(&err.to_string()));
    assert!(AppId::all().iter().all(|a| a.check(4, Scale::Tiny).is_ok()));
}

#[test]
fn suite_returns_the_first_bad_cell_in_input_order_for_any_jobs() {
    let cell = |app, procs| cell_matrix(&[app], &[procs], &[Scale::Tiny], 1)[0];
    let cells = vec![
        cell(AppId::Halo, 4),
        cell(AppId::Fft3d, 64),
        cell(AppId::Fft1d, 3),
        cell(AppId::Is, 4),
    ];
    let first = RunError::App(AppError::Indivisible {
        app: "3d-fft",
        procs: 64,
        what: "z-planes",
        size: 8,
    });
    for jobs in [1, 2, 4, 8] {
        let err = SuiteRunner::new(jobs).run(cells.clone()).unwrap_err();
        assert_eq!(err, first, "jobs {jobs}");
    }
}

#[test]
fn replay_errors_are_typed_through_the_consolidated_api() {
    let rep = CausalReplayer::new(MeshConfig::for_nodes(4));
    // A trace over more processors than the mesh has nodes, through both
    // the retained-log form and the sink-generic form, on both engines.
    let mut wide = CommTrace::new(16);
    wide.push(CommEvent::new(0, 0, 14, 15, 8, EventKind::Data));
    let too_small = ReplayError::MeshTooSmall { trace_nodes: 16, mesh_nodes: 4 };
    for kind in [EngineKind::Recurrence, EngineKind::flit()] {
        assert_eq!(rep.try_replay(&wide, kind).unwrap_err(), too_small);
        let sink = NetTally::new();
        assert_eq!(rep.try_replay_into(&wide, kind, 2, sink).unwrap_err(), too_small);
    }
    // A dependency on a never-sent message would stall the causal
    // schedule; the trace check rejects it before any injection.
    let mut dangling = CommTrace::new(4);
    dangling.push(CommEvent::new(0, 0, 0, 1, 8, EventKind::Data).after(42));
    let err = rep.try_replay(&dangling, EngineKind::Recurrence).unwrap_err();
    assert!(matches!(err, ReplayError::BrokenTrace(_)), "{err}");
    // A torus without its escape virtual channels is refused by the flit
    // engine as a value, not a panic.
    let torus = MeshConfig::torus_for_nodes(4).with_virtual_channels(1);
    let mut ok = CommTrace::new(4);
    ok.push(CommEvent::new(0, 0, 0, 1, 8, EventKind::Data));
    let err = CausalReplayer::new(torus).try_replay(&ok, EngineKind::flit()).unwrap_err();
    assert!(matches!(err, ReplayError::Engine(EngineError::UnsupportedTopology { .. })), "{err}");
}

/// A packed event stream whose header declares `nodes` processors.
fn packed_header(nodes: usize) -> Vec<u8> {
    TraceWriter::new(Vec::new(), nodes).unwrap().finish().unwrap()
}

#[test]
fn jsonl_header_above_max_nodes_is_a_typed_error() {
    let input = format!("{{\"nodes\":{}}}\n", MAX_NODES + 1);
    let err = CommTrace::from_jsonl(&input).unwrap_err();
    assert!(err.contains("4097 nodes") && err.contains("limit"), "{err}");
    assert!(CommTrace::from_jsonl(&format!("{{\"nodes\":{MAX_NODES}}}\n")).is_ok());
}

#[test]
fn cctrace1_header_above_max_nodes_is_a_typed_error() {
    let bytes = packed_header(MAX_NODES + 1);
    let err = PackedReader::from_bytes(&bytes).unwrap_err();
    assert!(matches!(err, TraceStoreError::TooManyNodes { nodes: 4097 }), "{err}");
    assert!(PackedReader::from_bytes(&packed_header(MAX_NODES)).is_ok());
}

#[test]
fn cctrace1_stream_header_above_max_nodes_is_a_typed_error() {
    let bytes = packed_header(MAX_NODES + 1);
    let err = StreamBlockReader::new(&bytes[..]).unwrap_err();
    assert!(matches!(err, TraceStoreError::TooManyNodes { nodes: 4097 }), "{err}");
}

#[test]
fn ccserve1_session_above_max_nodes_is_a_typed_error() {
    let server = Server::bind("127.0.0.1:0", ServeConfig { workers: 1, ..Default::default() })
        .expect("bind an ephemeral port");
    let handle = server.spawn();
    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();
    let err = client.open_session(MAX_NODES as u32 + 1).unwrap_err();
    assert!(matches!(err, ServeError::Malformed { .. }), "{err}");
    // The connection survives the refusal, and the limit itself is open.
    assert!(client.open_session(MAX_NODES as u32).is_ok());
    handle.shutdown();
}

/// A trace file that cannot be opened is named in the error, whichever
/// reader `characterize` opens it with.
#[test]
fn a_missing_trace_file_is_named_by_every_characterize_reader() {
    let path = std::env::temp_dir().join(format!("commchar-nope-{}.cct", std::process::id()));
    let path = path.to_str().unwrap();
    let os = std::fs::File::open(path).unwrap_err();
    for mode in ["--stream", "--no-replay"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_commchar"))
            .args(["characterize", "--trace", path, mode])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{mode}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr, format!("error: reading {path}: {os}\n"), "{mode}");
    }
}

/// One corrupt packed file gives one error line, whichever reader meets
/// it: `characterize --stream` block by block, `characterize --no-replay`
/// and `replay` whole through the trace loop.
#[test]
fn a_flipped_block_reads_as_one_error_in_every_reader() {
    let trace = acquire(&RunSpec::new(AppId::Is, 4, Scale::Tiny, 42)).unwrap().trace;
    let mut bytes = pack_trace(&trace);
    // The 10-byte header and block 0's 8-byte frame header come first, so
    // byte 20 is block 0's payload.
    bytes[20] ^= 0xff;
    let path = std::env::temp_dir().join(format!("commchar-flip-{}.cct", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let path_str = path.to_str().unwrap();
    let readers: [&[&str]; 3] = [
        &["characterize", "--trace", path_str, "--stream"],
        &["characterize", "--trace", path_str, "--no-replay"],
        &["replay", "--trace", path_str],
    ];
    let stderrs: Vec<String> = readers
        .iter()
        .map(|args| {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_commchar"))
                .args(*args)
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(1), "{args:?}");
            assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
            String::from_utf8(out.stderr).unwrap()
        })
        .collect();
    let _ = std::fs::remove_file(&path);
    assert!(stderrs[0].starts_with("error: checksum mismatch in block 0"), "{}", stderrs[0]);
    assert_eq!(stderrs[0].lines().count(), 1, "{}", stderrs[0]);
    assert!(stderrs.iter().all(|e| *e == stderrs[0]), "{stderrs:#?}");
}

/// Every way the command line can be rejected exits 1 with one `error:`
/// line on stderr and nothing on stdout, before it runs anything.
#[test]
fn rejected_command_lines_exit_1_with_one_error_line() {
    const TRACE: &str =
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/engine_diff.trace.jsonl");
    let rows: [&[&str]; 21] = [
        &["frobnicate"],
        &["run", "halo", "--frobnicate"],
        &["run", "halo", "--procs"],
        &["run", "halo", "--procs", "four"],
        &["run", "no-such-app", "--procs", "4", "--scale", "tiny"],
        &["run", "halo", "--procs", "4", "--scale", "huge"],
        &["run", "halo", "--procs", "4", "--scale", "tiny", "--engine", "warp"],
        &["run", "halo", "--procs", "4", "--scale", "tiny", "--topology", "ring"],
        &["run", "halo", "--procs", "4", "--scale", "tiny", "--routing", "random"],
        &["run", "halo", "--procs", "0", "--scale", "tiny"],
        &["run", "halo", "--procs", "5000", "--scale", "tiny"],
        &["run", "1d-fft", "--procs", "3", "--scale", "tiny"],
        &["trace"],
        &["trace", "frobnicate", TRACE],
        &["trace", "pack", TRACE],
        &["characterize", "--stream"],
        &["characterize", "--stream", "--trace", TRACE],
        &["replay", "--trace", "/nonexistent/trace.jsonl"],
        &["replay", "--trace", TRACE, "--streaming"],
        &["run", "halo", "--procs", "4", "--scale", "tiny", "--packed"],
        &["generate", "nbody", "--procs", "4", "--scale", "tiny", "--packed"],
    ];
    for args in rows {
        let out =
            std::process::Command::new(env!("CARGO_BIN_EXE_commchar")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        let lines: Vec<&str> = stderr.lines().collect();
        assert!(lines.len() == 1 && lines[0].starts_with("error: "), "{args:?}: {stderr}");
    }
}

#[cfg(unix)]
#[test]
fn a_closed_stdout_is_an_error_not_a_panic() {
    use std::process::{Command, Stdio};
    const TRACE: &str =
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/engine_diff.trace.jsonl");
    let commands: [&[&str]; 6] = [
        &["help"],
        &["run", "is", "--procs", "4", "--scale", "tiny"],
        &["generate", "nbody", "--procs", "4", "--scale", "tiny"],
        &["characterize", "--trace", TRACE, "--no-replay"],
        &["replay", "--trace", TRACE],
        &["trace", "stat", TRACE],
    ];
    for args in commands {
        // The reader is gone before the child starts, so its first write
        // to stdout fails whatever the timing.
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let child = Command::new(env!("CARGO_BIN_EXE_commchar"))
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("error: writing stdout")),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// A stderr whose reader has gone loses the diagnostics, never the exit
/// code or stdout: an error still exits 1, and a run that only reports
/// timing there exits 0 with its stdout intact.
#[cfg(unix)]
#[test]
fn a_closed_stderr_is_not_a_panic() {
    use std::process::Command;
    let cases: [(&[&str], i32); 2] = [
        (&["trace", "stat", "/nonexistent"], 1),
        (&["suite", "--procs", "4", "--scale", "tiny", "--jobs", "1"], 0),
    ];
    for (args, code) in cases {
        let bin = || Command::new(env!("CARGO_BIN_EXE_commchar"));
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = bin().args(args).stderr(writer).output().unwrap();
        assert_eq!(out.status.code(), Some(code), "{args:?}");
        let open = bin().args(args).output().unwrap();
        assert_eq!(open.status.code(), Some(code), "{args:?}");
        assert_eq!(out.stdout, open.stdout, "{args:?}");
    }
}
