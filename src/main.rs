//! The `commchar` binary: thin argument parsing over [`commchar::cli`].

use std::process::ExitCode;

use commchar::apps::{AppId, Scale};
use commchar::cli;
use commchar::core::RunSpec;

struct Args {
    positional: Vec<String>,
    /// The run flags; the application is set from the command's
    /// positional argument where it takes one.
    spec: RunSpec,
    out: Option<String>,
    trace: Option<String>,
    jobs: usize,
    block_jobs: usize,
    block_len: usize,
    streaming: bool,
    stream: bool,
    no_replay: bool,
    packed: bool,
    addr: String,
    serve_workers: usize,
    session_buffer: u64,
    idle_timeout: u64,
    poll_every: usize,
    shutdown: bool,
}

/// The value following `flag`.
fn value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
}

/// The value following `flag`, parsed as an integer.
fn number<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    value(it, flag)?.parse().map_err(|_| format!("{flag} needs an integer"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        spec: RunSpec::new(AppId::all()[0], 8, Scale::Small, 42),
        out: None,
        trace: None,
        jobs: 0,
        block_jobs: 0,
        block_len: 0,
        streaming: false,
        stream: false,
        no_replay: false,
        packed: false,
        addr: "127.0.0.1:7411".to_string(),
        serve_workers: 0,
        session_buffer: 64 << 20,
        idle_timeout: 300,
        poll_every: 0,
        shutdown: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        match flag {
            "--jobs" => args.jobs = number(&mut it, flag)?,
            "--sim-jobs" => args.spec.sim_jobs = number(&mut it, flag)?,
            "--block-jobs" => args.block_jobs = number(&mut it, flag)?,
            "--block-len" => args.block_len = number(&mut it, flag)?,
            "--streaming" => args.streaming = true,
            "--stream" => args.stream = true,
            "--no-replay" => args.no_replay = true,
            "--packed" => args.packed = true,
            "--procs" => args.spec.procs = number(&mut it, flag)?,
            "--scale" => {
                args.spec.scale = cli::parse_scale(&value(&mut it, flag)?).map_err(|e| e.0)?
            }
            "--engine" => {
                args.spec.engine = cli::parse_engine(&value(&mut it, flag)?).map_err(|e| e.0)?;
            }
            "--topology" => {
                args.spec.topology =
                    cli::parse_topology(&value(&mut it, flag)?).map_err(|e| e.0)?;
            }
            "--routing" => {
                args.spec.routing = cli::parse_routing(&value(&mut it, flag)?).map_err(|e| e.0)?;
            }
            "--seed" => args.spec.seed = number(&mut it, flag)?,
            "--addr" => args.addr = value(&mut it, flag)?,
            "--serve-workers" => args.serve_workers = number(&mut it, flag)?,
            "--session-buffer" => args.session_buffer = number(&mut it, flag)?,
            "--idle-timeout" => args.idle_timeout = number(&mut it, flag)?,
            "--poll-every" => args.poll_every = number(&mut it, flag)?,
            "--shutdown" => args.shutdown = true,
            "--out" => args.out = Some(value(&mut it, flag)?),
            "--trace" => args.trace = Some(value(&mut it, flag)?),
            other if other.starts_with("--") => return Err(format!("unknown option {other:?}")),
            other => args.positional.push(other.to_string()),
        }
    }
    Ok(args)
}

/// Writes `text` to `out`, or to stdout through [`cli::write_stdout`].
fn emit(text: &str, out: &Option<String>) -> Result<(), String> {
    match out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}")),
        None => cli::write_stdout(text.as_bytes()).map_err(|e| e.0),
    }
}

/// Refuses `--packed` without `--out`: packed output is binary, so it
/// never goes to stdout. `run` and `generate` check this before they run.
fn check_packed_out(args: &Args) -> Result<(), String> {
    if args.packed && args.out.is_none() {
        return Err("--packed output is binary; it needs --out FILE".to_string());
    }
    Ok(())
}

/// Writes trace output in the format selected by `--packed` (checked by
/// [`check_packed_out`] to have an `--out` file).
fn emit_trace(trace: &commchar::trace::CommTrace, args: &Args) -> Result<(), String> {
    if let (true, Some(path)) = (args.packed, &args.out) {
        let bytes = if args.block_len == 0 {
            commchar::tracestore::pack_trace(trace)
        } else {
            commchar::tracestore::writer::pack_trace_with_block_len(trace, args.block_len)
        };
        std::fs::write(path, bytes).map_err(|e| format!("writing {path}: {e}"))
    } else {
        emit(&trace.to_jsonl(), &args.out)
    }
}

fn read_file(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))
}

fn read_trace(args: &Args) -> Result<Vec<u8>, String> {
    read_file(args.trace.as_ref().ok_or("this command needs --trace FILE")?)
}

/// The run flags with the application named by positional argument 1.
fn app_spec(args: &Args, missing: &str) -> Result<RunSpec, String> {
    let app = args.positional.get(1).ok_or(missing)?;
    Ok(RunSpec { app: cli::parse_app(app).map_err(|e| e.0)?, ..args.spec })
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    let cmd = args.positional.first().map(String::as_str);
    match cmd {
        Some("run") => {
            let spec = app_spec(&args, "run needs an application name")?;
            check_packed_out(&args)?;
            let (report, trace) = cli::cmd_run(spec).map_err(|e| e.0)?;
            emit(&report, &None)?;
            if args.out.is_some() {
                emit_trace(&trace, &args)?;
            }
            Ok(())
        }
        Some("characterize") => {
            let text = if args.stream {
                let path = args.trace.as_ref().ok_or("--stream needs --trace FILE (packed)")?;
                cli::cmd_characterize_stream(path, args.jobs, args.block_jobs).map_err(|e| e.0)?
            } else if args.trace.is_some() {
                let input = read_trace(&args)?;
                if args.no_replay {
                    cli::cmd_characterize_trace_only(&input, args.jobs).map_err(|e| e.0)?
                } else {
                    cli::cmd_characterize_trace(&input, args.jobs, args.spec).map_err(|e| e.0)?
                }
            } else {
                let spec = app_spec(&args, "characterize needs an app or --trace FILE")?;
                cli::cmd_characterize_app(spec, args.jobs).map_err(|e| e.0)?
            };
            emit(&text, &None)
        }
        Some("generate") => {
            let spec = app_spec(&args, "generate needs an application name")?;
            check_packed_out(&args)?;
            let trace = cli::cmd_generate_trace(spec).map_err(|e| e.0)?;
            emit_trace(&trace, &args)
        }
        Some("replay") => {
            let input = read_trace(&args)?;
            let text = if args.streaming {
                cli::cmd_replay_streaming(&input, args.spec).map_err(|e| e.0)?
            } else {
                cli::cmd_replay(&input, args.spec).map_err(|e| e.0)?
            };
            emit(&text, &None)
        }
        Some("trace") => {
            let sub = args.positional.get(1).map(String::as_str);
            if !matches!(sub, Some("pack" | "cat" | "stat")) {
                return Err("trace needs a subcommand: pack | cat | stat".to_string());
            }
            let input = args
                .positional
                .get(2)
                .or(args.trace.as_ref())
                .ok_or("this command needs --trace FILE")?;
            match sub {
                Some("pack") => {
                    let path = args
                        .out
                        .as_ref()
                        .ok_or("trace pack output is binary; it needs --out FILE")?;
                    cli::cmd_trace_pack(input, path, args.block_len, args.jobs).map_err(|e| e.0)
                }
                Some("cat") => {
                    cli::cmd_trace_cat(input, args.out.as_deref(), args.jobs).map_err(|e| e.0)
                }
                _ => emit(&cli::cmd_trace_stat(input, args.jobs).map_err(|e| e.0)?, &None),
            }
        }
        Some("suite") => {
            let (table, timing) = cli::cmd_suite(args.spec, args.jobs).map_err(|e| e.0)?;
            cli::write_stderr(&timing);
            emit(&table, &None)
        }
        Some("serve") => {
            let cfg = commchar::serve::ServeConfig {
                workers: args.serve_workers,
                fit_jobs: args.jobs,
                session_buffer: args.session_buffer,
                idle_timeout: std::time::Duration::from_secs(args.idle_timeout),
            };
            let server = commchar::serve::Server::bind(&args.addr, cfg)
                .map_err(|e| format!("binding {}: {e}", args.addr))?;
            // The bound address goes out (and is flushed) before serving
            // so scripts can capture an ephemeral port from :0.
            emit(&format!("listening on {}\n", server.local_addr()), &None)?;
            let stats = server.run();
            cli::write_stderr(&format!(
                "served {} frames / {} events over {} sessions ({} evictions) in {} ms\n",
                stats.frames, stats.events, stats.sessions_opened, stats.evictions, stats.uptime_ms
            ));
            Ok(())
        }
        Some("serve-feed") => {
            let path = args.trace.as_ref().ok_or("this command needs --trace FILE")?;
            let (report, status) = if path == "-" {
                // `-` streams CCTRACE1 blocks straight off stdin, one at a
                // time, so a live producer can pipe into the server.
                cli::cmd_serve_feed_stream(
                    &args.addr,
                    std::io::stdin().lock(),
                    args.poll_every,
                    args.shutdown,
                )
                .map_err(|e| e.0)?
            } else {
                cli::cmd_serve_feed(
                    &args.addr,
                    path,
                    args.block_len,
                    args.poll_every,
                    args.shutdown,
                )
                .map_err(|e| e.0)?
            };
            cli::write_stderr(&status);
            emit(&report, &args.out)
        }
        Some("help") | None => emit(&cli::usage(), &None),
        Some(other) => Err(format!("unknown command {other:?}; try `commchar help`")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            cli::write_stderr(&format!("error: {e}\n"));
            ExitCode::FAILURE
        }
    }
}
