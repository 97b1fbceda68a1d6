//! Library half of `spb-cli`: argument parsing, data-file loading and the
//! command implementations, separated from `main` so everything is unit-
//! and integration-testable without spawning processes.
//!
//! Supported data schemas:
//!
//! * `words` — one UTF-8 word per line, edit distance;
//! * `vectors` — one comma-separated `f32` row per line (coordinates in
//!   `[0, 1]`), L₂ or L₅ norm.
//!
//! The schema is recorded in the index directory (`cli.schema`) at build
//! time so query commands need only `--index`.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::io::{self, BufRead};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};

use spb_core::{QueryPlan, QueryShape, SpbConfig, SpbTree};
use spb_metric::{EditDistance, FloatVec, LpNorm, Word};
use spb_server::{AdmissionConfig, Client, ClientError, ErrorCode, Response, ServerConfig};

pub use spb_server::{schema_path, Schema};

/// Exit code for argument/usage errors.
pub const EXIT_USAGE: i32 = 2;
/// Exit code when the remote server cannot be reached.
pub const EXIT_CONNECT: i32 = 10;
/// Exit code when the server shed the request (admission queue full).
pub const EXIT_OVERLOADED: i32 = 11;
/// Exit code when the request's deadline expired before completion.
pub const EXIT_DEADLINE: i32 = 12;
/// Exit code for a wire-protocol version mismatch.
pub const EXIT_VERSION: i32 = 13;

/// A command failure: the process exit code plus a one-line diagnostic.
#[derive(Debug)]
pub struct CliError {
    /// Process exit code (never 0).
    pub code: i32,
    /// One-line message for stderr.
    pub message: String,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { code: 1, message }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Maps a remote failure onto the CLI's distinct exit codes so shell
/// scripts can tell "back off" (overloaded) from "give up" (refused).
fn client_error(e: ClientError) -> CliError {
    let code = match &e {
        ClientError::Connect(_) => EXIT_CONNECT,
        ClientError::Server {
            code: ErrorCode::Overloaded,
            ..
        } => EXIT_OVERLOADED,
        ClientError::Server {
            code: ErrorCode::DeadlineExceeded,
            ..
        } => EXIT_DEADLINE,
        ClientError::Server {
            code: ErrorCode::VersionMismatch,
            ..
        } => EXIT_VERSION,
        ClientError::Wire(spb_server::WireError::VersionMismatch { .. }) => EXIT_VERSION,
        _ => 1,
    };
    CliError {
        code,
        message: e.to_string(),
    }
}

/// Parses the `--accel` flag: `off` / `learned`.
pub fn parse_accel(s: &str) -> Result<spb_core::AccelPolicy, String> {
    match s {
        "off" => Ok(spb_core::AccelPolicy::Off),
        "learned" => Ok(spb_core::AccelPolicy::Learned),
        other => Err(format!(
            "unknown accel policy {other:?} (expected off|learned)"
        )),
    }
}

/// Parses the `--curve` flag: `hilbert` / `z`.
pub fn parse_curve(s: &str) -> Result<spb_sfc::CurveKind, String> {
    match s {
        "hilbert" => Ok(spb_sfc::CurveKind::Hilbert),
        "z" => Ok(spb_sfc::CurveKind::Z),
        other => Err(format!("unknown curve {other:?} (expected hilbert|z)")),
    }
}

/// A parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Build an index from a data file.
    Build {
        /// Data file path.
        input: PathBuf,
        /// Index directory to create.
        index: PathBuf,
        /// `words` or `vectors:l2` / `vectors:l5`.
        schema_flag: String,
        /// Number of pivots.
        pivots: usize,
        /// `hilbert` or `z`.
        curve: String,
        /// `off` or `learned` (`--accel`): train and persist a learned
        /// leaf-positioning model alongside the index.
        accel: String,
    },
    /// Range query.
    Range {
        /// Index directory.
        index: PathBuf,
        /// Query object in the schema's line format.
        query: String,
        /// Search radius.
        radius: f64,
    },
    /// Count-only range query.
    Count {
        /// Index directory.
        index: PathBuf,
        /// Query object in the schema's line format.
        query: String,
        /// Search radius.
        radius: f64,
    },
    /// kNN query.
    Knn {
        /// Index directory.
        index: PathBuf,
        /// Query object in the schema's line format.
        query: String,
        /// `--k K [--alpha A]`: neighbour count plus the optional
        /// approximation factor (see [`knn_plan`]).
        plan: QueryPlan,
        /// Measure and report the achieved recall against the exact
        /// answer (`--approx`).
        approx: bool,
        /// Auto-tune `alpha` to the smallest ladder value meeting this
        /// recall target (`--recall-target`); implies measurement.
        recall_target: Option<f64>,
    },
    /// Batch of queries from a file, fanned across worker threads.
    Batch {
        /// Index directory.
        index: PathBuf,
        /// File with one query per line (schema line format).
        queries: PathBuf,
        /// Range radius (`--radius`); mutually exclusive with `k`.
        radius: Option<f64>,
        /// Neighbour count (`--k`); mutually exclusive with `radius`.
        k: Option<usize>,
        /// Worker threads (also the number of cache stripes).
        threads: usize,
    },
    /// Print index statistics.
    Stats {
        /// Index directory.
        index: PathBuf,
    },
    /// Offline integrity check: page checksums, B⁺-tree structure, RAF
    /// reachability, WAL state. Needs no metric or schema.
    Verify {
        /// Index directory.
        index: PathBuf,
    },
    /// Replay the write-ahead log after a crash (also runs automatically
    /// when an index is opened).
    Recover {
        /// Index directory.
        index: PathBuf,
    },
    /// Serve an index over TCP until SIGINT/SIGTERM or a remote
    /// `shutdown` request.
    Serve {
        /// Index directory.
        index: PathBuf,
        /// Listen address, e.g. `127.0.0.1:7878`.
        addr: String,
        /// Requests executing concurrently before arrivals queue.
        max_inflight: usize,
        /// Requests allowed to wait before arrivals are shed.
        max_queue: usize,
        /// Concurrent TCP connections before new ones are refused.
        max_connections: usize,
        /// Worker threads for batch queries (also cache stripes).
        threads: usize,
        /// Keep a bounded in-memory ring of span trace events
        /// (`--trace on`); dumped through `remote obs-stats`.
        trace: bool,
    },
    /// Launch an in-process sharded cluster over a data file, check it
    /// answers byte-identically to a single node, and (with replicas)
    /// that reads survive a primary kill. Prints greppable
    /// `cluster-identical: OK` / `failover: OK` lines for CI.
    Cluster {
        /// Data file path (words schema: one word per line).
        input: PathBuf,
        /// Number of shards.
        shards: usize,
        /// Read replicas per shard.
        replicas: usize,
        /// Working directory for the cluster's files; a throwaway temp
        /// directory when absent.
        dir: Option<PathBuf>,
    },
    /// A query or update against a running `spb-server`.
    Remote(RemoteCommand),
}

/// The `spb-cli remote <sub>` family. Queries are written in the same
/// text form as the local commands; the schema needed to encode them is
/// fetched from the server's `ping` handshake.
#[derive(Clone, Debug, PartialEq)]
pub enum RemoteCommand {
    /// Protocol handshake: version, schema, object count.
    Ping {
        /// Server address.
        addr: String,
    },
    /// Range query.
    Range {
        /// Server address.
        addr: String,
        /// Query in the schema's text form.
        query: String,
        /// Search radius.
        radius: f64,
        /// Relative deadline in ms (`0` = none).
        deadline_ms: u32,
    },
    /// kNN query.
    Knn {
        /// Server address.
        addr: String,
        /// Query in the schema's text form.
        query: String,
        /// `--k K [--alpha A] [--approx]`, parsed exactly like the local
        /// `knn` (see [`knn_plan`]); an approximate plan travels as the
        /// α-approximate wire op.
        plan: QueryPlan,
        /// Relative deadline in ms (`0` = none).
        deadline_ms: u32,
    },
    /// Insert one object.
    Insert {
        /// Server address.
        addr: String,
        /// Object in the schema's text form.
        object: String,
        /// Relative deadline in ms (`0` = none).
        deadline_ms: u32,
    },
    /// Delete one object.
    Delete {
        /// Server address.
        addr: String,
        /// Object in the schema's text form.
        object: String,
        /// Relative deadline in ms (`0` = none).
        deadline_ms: u32,
    },
    /// Batch of queries from a file (one per line).
    Batch {
        /// Server address.
        addr: String,
        /// File with one query per line.
        queries: PathBuf,
        /// Range radius (`--radius`); mutually exclusive with `k`.
        radius: Option<f64>,
        /// Neighbour count (`--k`); mutually exclusive with `radius`.
        k: Option<u32>,
        /// Relative deadline in ms (`0` = none).
        deadline_ms: u32,
    },
    /// Server + index statistics.
    Stats {
        /// Server address.
        addr: String,
    },
    /// Full observability snapshot: every counter, gauge and latency
    /// histogram the server has registered, plus recent trace events.
    ObsStats {
        /// Server address.
        addr: String,
    },
    /// Ask the server to drain in-flight work, checkpoint and exit.
    Shutdown {
        /// Server address.
        addr: String,
    },
}

/// Parses an argument vector (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(usage)?;
    let mut flags: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    let mut rest: Vec<&String> = it.collect();
    // `remote` takes a positional subcommand before its flags.
    let sub: Option<String> = if cmd == "remote" {
        let first = rest
            .first()
            .filter(|s| !s.starts_with("--"))
            .ok_or_else(|| format!("remote needs a subcommand\n{}", usage()))?;
        let s = (*first).clone();
        rest.remove(0);
        Some(s)
    } else {
        None
    };
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {:?}", rest[i]))?;
        // `--approx` is a bare switch: it takes no value.
        if key == "approx" {
            flags.insert(key.to_owned(), "true".to_owned());
            i += 1;
            continue;
        }
        let value = rest
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_owned(), (*value).clone());
        i += 2;
    }
    let need = |k: &str| -> Result<String, String> {
        flags
            .get(k)
            .cloned()
            .ok_or_else(|| format!("missing required --{k}"))
    };
    let opt = |k: &str, default: &str| flags.get(k).cloned().unwrap_or_else(|| default.to_owned());

    match cmd.as_str() {
        "build" => Ok(Command::Build {
            input: PathBuf::from(need("input")?),
            index: PathBuf::from(need("index")?),
            schema_flag: opt("schema", "words"),
            pivots: opt("pivots", "5")
                .parse()
                .map_err(|_| "--pivots must be an integer".to_owned())?,
            curve: opt("curve", "hilbert"),
            accel: opt("accel", "off"),
        }),
        "range" | "count" => {
            let index = PathBuf::from(need("index")?);
            let query = need("query")?;
            let radius: f64 = need("radius")?
                .parse()
                .map_err(|_| "--radius must be a number".to_owned())?;
            Ok(if cmd == "range" {
                Command::Range {
                    index,
                    query,
                    radius,
                }
            } else {
                Command::Count {
                    index,
                    query,
                    radius,
                }
            })
        }
        "knn" => Ok(Command::Knn {
            index: PathBuf::from(need("index")?),
            query: need("query")?,
            plan: knn_plan(&flags)?,
            approx: flags.contains_key("approx"),
            recall_target: flags
                .get("recall-target")
                .map(|t| t.parse::<f64>())
                .transpose()
                .map_err(|_| "--recall-target must be a number".to_owned())?,
        }),
        "batch" => {
            let radius = flags
                .get("radius")
                .map(|r| r.parse::<f64>())
                .transpose()
                .map_err(|_| "--radius must be a number".to_owned())?;
            let k = flags
                .get("k")
                .map(|k| k.parse::<usize>())
                .transpose()
                .map_err(|_| "--k must be an integer".to_owned())?;
            if radius.is_some() == k.is_some() {
                return Err("batch needs exactly one of --radius or --k".to_owned());
            }
            Ok(Command::Batch {
                index: PathBuf::from(need("index")?),
                queries: PathBuf::from(need("queries")?),
                radius,
                k,
                threads: opt("threads", "1")
                    .parse()
                    .map_err(|_| "--threads must be an integer".to_owned())?,
            })
        }
        "stats" => {
            // `stats --addr HOST:PORT` is shorthand for `remote
            // obs-stats`: the live server's full metric snapshot.
            if let Some(addr) = flags.get("addr") {
                Ok(Command::Remote(RemoteCommand::ObsStats {
                    addr: addr.clone(),
                }))
            } else {
                Ok(Command::Stats {
                    index: PathBuf::from(need("index")?),
                })
            }
        }
        "verify" => Ok(Command::Verify {
            index: PathBuf::from(need("index")?),
        }),
        "recover" => Ok(Command::Recover {
            index: PathBuf::from(need("index")?),
        }),
        "serve" => Ok(Command::Serve {
            index: PathBuf::from(need("index")?),
            addr: opt("addr", "127.0.0.1:7878"),
            max_inflight: opt("max-inflight", "4")
                .parse()
                .map_err(|_| "--max-inflight must be an integer".to_owned())?,
            max_queue: opt("max-queue", "64")
                .parse()
                .map_err(|_| "--max-queue must be an integer".to_owned())?,
            max_connections: opt("max-connections", "64")
                .parse()
                .map_err(|_| "--max-connections must be an integer".to_owned())?,
            threads: opt("threads", "4")
                .parse()
                .map_err(|_| "--threads must be an integer".to_owned())?,
            trace: match opt("trace", "off").as_str() {
                "on" | "true" | "1" => true,
                "off" | "false" | "0" => false,
                other => return Err(format!("--trace must be on|off, got {other:?}")),
            },
        }),
        "cluster" => Ok(Command::Cluster {
            input: PathBuf::from(need("input")?),
            shards: opt("shards", "2")
                .parse()
                .map_err(|_| "--shards must be an integer".to_owned())?,
            replicas: opt("replicas", "0")
                .parse()
                .map_err(|_| "--replicas must be an integer".to_owned())?,
            dir: flags.get("dir").map(PathBuf::from),
        }),
        "remote" => {
            let addr = need("addr")?;
            let deadline_ms: u32 = opt("deadline-ms", "0")
                .parse()
                .map_err(|_| "--deadline-ms must be an integer".to_owned())?;
            let sub = sub.expect("remote always parses a subcommand");
            match sub.as_str() {
                "ping" => Ok(Command::Remote(RemoteCommand::Ping { addr })),
                "range" => Ok(Command::Remote(RemoteCommand::Range {
                    addr,
                    query: need("query")?,
                    radius: need("radius")?
                        .parse()
                        .map_err(|_| "--radius must be a number".to_owned())?,
                    deadline_ms,
                })),
                "knn" => Ok(Command::Remote(RemoteCommand::Knn {
                    addr,
                    query: need("query")?,
                    plan: knn_plan(&flags)?,
                    deadline_ms,
                })),
                "insert" => Ok(Command::Remote(RemoteCommand::Insert {
                    addr,
                    object: need("object")?,
                    deadline_ms,
                })),
                "delete" => Ok(Command::Remote(RemoteCommand::Delete {
                    addr,
                    object: need("object")?,
                    deadline_ms,
                })),
                "batch" => {
                    let radius = flags
                        .get("radius")
                        .map(|r| r.parse::<f64>())
                        .transpose()
                        .map_err(|_| "--radius must be a number".to_owned())?;
                    let k = flags
                        .get("k")
                        .map(|k| k.parse::<u32>())
                        .transpose()
                        .map_err(|_| "--k must be an integer".to_owned())?;
                    if radius.is_some() == k.is_some() {
                        return Err("remote batch needs exactly one of --radius or --k".to_owned());
                    }
                    Ok(Command::Remote(RemoteCommand::Batch {
                        addr,
                        queries: PathBuf::from(need("queries")?),
                        radius,
                        k,
                        deadline_ms,
                    }))
                }
                "stats" => Ok(Command::Remote(RemoteCommand::Stats { addr })),
                "obs-stats" => Ok(Command::Remote(RemoteCommand::ObsStats { addr })),
                "shutdown" => Ok(Command::Remote(RemoteCommand::Shutdown { addr })),
                other => Err(format!("unknown remote subcommand {other:?}\n{}", usage())),
            }
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

/// The kNN plan of `--k K [--alpha A] [--approx]`, shared by the local
/// and the remote `knn` so both accept and reject the same flags: `K`
/// defaults to 10, an `--alpha` makes the query α-approximate, and a bare
/// `--approx` asks for the approximate mode at `α = 1`. An `A` the plan
/// rejects (below 1, NaN, infinite) is a usage error.
fn knn_plan(flags: &std::collections::HashMap<String, String>) -> Result<QueryPlan, String> {
    let k: u32 = flags
        .get("k")
        .map_or(Ok(10), |k| k.parse())
        .map_err(|_| "--k must be an integer".to_owned())?;
    let alpha = flags
        .get("alpha")
        .map(|a| a.parse::<f64>())
        .transpose()
        .map_err(|_| "--alpha must be a number".to_owned())?;
    let approx = alpha.or(flags.contains_key("approx").then_some(1.0));
    QueryPlan::new(QueryShape::Knn { k: k as usize }, approx).map_err(|e| format!("--alpha: {e}"))
}

/// The `k` of a `knn` command's plan.
fn knn_k(plan: QueryPlan) -> Result<usize, String> {
    match plan.shape() {
        QueryShape::Knn { k } => Ok(k),
        QueryShape::Range { .. } => Err("knn needs a kNN plan".to_owned()),
    }
}

/// The usage banner.
pub fn usage() -> String {
    "usage: spb-cli <command> [--flag value ...]\n\
     \x20 build --input FILE --index DIR [--schema words|vectors:l2|vectors:l5] [--pivots N] [--curve hilbert|z] [--accel off|learned]\n\
     \x20 range --index DIR --query Q --radius R\n\
     \x20 count --index DIR --query Q --radius R\n\
     \x20 knn   --index DIR --query Q [--k K] [--alpha A] [--approx] [--recall-target T]\n\
     \x20 batch --index DIR --queries FILE (--radius R | --k K) [--threads N]\n\
     \x20 stats --index DIR | --addr HOST:PORT\n\
     \x20 verify --index DIR\n\
     \x20 recover --index DIR\n\
     \x20 serve --index DIR [--addr HOST:PORT] [--max-inflight N] [--max-queue N] [--max-connections N] [--threads N] [--trace on|off]\n\
     \x20 cluster --input FILE [--shards N] [--replicas R] [--dir DIR]\n\
     \x20 remote ping --addr HOST:PORT\n\
     \x20 remote range --addr HOST:PORT --query Q --radius R [--deadline-ms MS]\n\
     \x20 remote knn --addr HOST:PORT --query Q [--k K] [--approx] [--alpha A] [--deadline-ms MS]\n\
     \x20 remote insert --addr HOST:PORT --object O [--deadline-ms MS]\n\
     \x20 remote delete --addr HOST:PORT --object O [--deadline-ms MS]\n\
     \x20 remote batch --addr HOST:PORT --queries FILE (--radius R | --k K) [--deadline-ms MS]\n\
     \x20 remote stats --addr HOST:PORT\n\
     \x20 remote obs-stats --addr HOST:PORT\n\
     \x20 remote shutdown --addr HOST:PORT"
        .to_owned()
}

/// Loads a words file (one word per line, blank lines skipped).
pub fn load_words(reader: impl BufRead) -> io::Result<Vec<Word>> {
    let mut out = Vec::new();
    for line in reader.lines() {
        let line = line?;
        let w = line.trim();
        if !w.is_empty() {
            out.push(Word::new(w));
        }
    }
    Ok(out)
}

/// Loads a vectors file (one comma-separated f32 row per line).
pub fn load_vectors(reader: impl BufRead) -> io::Result<(Vec<FloatVec>, usize)> {
    let mut out: Vec<FloatVec> = Vec::new();
    let mut dim = 0usize;
    for (no, line) in reader.lines().enumerate() {
        let line = line?;
        let row = line.trim();
        if row.is_empty() {
            continue;
        }
        let coords: Result<Vec<f32>, _> = row.split(',').map(|c| c.trim().parse()).collect();
        let coords = coords.map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: bad float: {e}", no + 1),
            )
        })?;
        if dim == 0 {
            dim = coords.len();
        } else if coords.len() != dim {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "line {}: expected {dim} coordinates, got {}",
                    no + 1,
                    coords.len()
                ),
            ));
        }
        out.push(FloatVec::new(coords));
    }
    Ok((out, dim))
}

/// Executes a parsed command, writing human-readable output into `out`.
///
/// Failures carry the process exit code: remote commands map
/// connection-refused, `Overloaded`, `DeadlineExceeded` and protocol
/// version mismatches onto [`EXIT_CONNECT`], [`EXIT_OVERLOADED`],
/// [`EXIT_DEADLINE`] and [`EXIT_VERSION`]; everything else is 1.
pub fn run(cmd: &Command, out: &mut String) -> Result<(), CliError> {
    match cmd {
        Command::Serve {
            index,
            addr,
            max_inflight,
            max_queue,
            max_connections,
            threads,
            trace,
        } => {
            spb_obs::trace::set_enabled(*trace);
            let cfg = ServerConfig {
                max_connections: *max_connections,
                admission: AdmissionConfig {
                    max_inflight: *max_inflight,
                    max_queue: *max_queue,
                },
                worker_threads: *threads,
                ..ServerConfig::default()
            };
            serve_blocking(index, addr, cfg, |a| {
                eprintln!("spb-server listening on {a}");
            })?;
            let _ = writeln!(out, "server stopped");
            Ok(())
        }
        Command::Remote(rc) => run_remote(rc, out),
        other => run_local(other, out).map_err(CliError::from),
    }
}

/// Opens `index` and serves it on `addr`, blocking until SIGINT/SIGTERM
/// or a remote shutdown request. `on_start` observes the bound address
/// (useful with `--addr 127.0.0.1:0`).
pub fn serve_blocking(
    index: &Path,
    addr: &str,
    cfg: ServerConfig,
    on_start: impl FnMut(SocketAddr),
) -> Result<(), CliError> {
    let service = spb_server::open_index(index, 32, cfg.worker_threads.max(1))
        .map_err(|e| CliError::from(format!("open {index:?}: {e}")))?;
    spb_server::serve_until_shutdown(service, addr, cfg, on_start)
        .map_err(|e| CliError::from(format!("serve on {addr}: {e}")))
}

/// Connects and fetches the index schema from the `ping` handshake, so
/// query text can be encoded without any local index directory.
fn connect_with_schema(addr: &str) -> Result<(Client, Schema), CliError> {
    let mut client = Client::connect(addr).map_err(client_error)?;
    let (_version, line, _len) = client.ping().map_err(client_error)?;
    let schema = Schema::from_line(line.trim())?;
    Ok((client, schema))
}

fn run_remote(cmd: &RemoteCommand, out: &mut String) -> Result<(), CliError> {
    match cmd {
        RemoteCommand::Ping { addr } => {
            let mut client = Client::connect(addr.as_str()).map_err(client_error)?;
            let (version, schema, len) = client.ping().map_err(client_error)?;
            let _ = writeln!(out, "protocol v{version}; schema: {schema}; objects: {len}");
            Ok(())
        }
        RemoteCommand::Range {
            addr,
            query,
            radius,
            deadline_ms,
        } => {
            let (mut client, schema) = connect_with_schema(addr)?;
            let obj = schema.encode_text(query)?;
            let (hits, stats) = client
                .range(&obj, *radius, None, *deadline_ms)
                .map_err(client_error)?;
            for (id, bytes) in &hits {
                let _ = writeln!(out, "{id}\t{}", schema.render(bytes)?);
            }
            let qs: spb_core::QueryStats = (&stats).into();
            report_query(out, hits.len(), &qs);
            Ok(())
        }
        RemoteCommand::Knn {
            addr,
            query,
            plan,
            deadline_ms,
        } => {
            let (mut client, schema) = connect_with_schema(addr)?;
            let obj = schema.encode_text(query)?;
            let k = knn_k(*plan)? as u32;
            let (nn, stats) = client
                .knn(&obj, k, plan.approx(), *deadline_ms)
                .map_err(client_error)?;
            for (id, d, bytes) in &nn {
                let _ = writeln!(out, "{id}\t{d}\t{}", schema.render(bytes)?);
            }
            let qs: spb_core::QueryStats = (&stats).into();
            report_query(out, nn.len(), &qs);
            Ok(())
        }
        RemoteCommand::Insert {
            addr,
            object,
            deadline_ms,
        } => {
            let (mut client, schema) = connect_with_schema(addr)?;
            let obj = schema.encode_text(object)?;
            let stats = client.insert(&obj, *deadline_ms).map_err(client_error)?;
            let _ = writeln!(
                out,
                "inserted; {} compdists, {} page accesses, {} fsync(s)",
                stats.compdists, stats.page_accesses, stats.fsyncs
            );
            Ok(())
        }
        RemoteCommand::Delete {
            addr,
            object,
            deadline_ms,
        } => {
            let (mut client, schema) = connect_with_schema(addr)?;
            let obj = schema.encode_text(object)?;
            let (found, stats) = client.delete(&obj, *deadline_ms).map_err(client_error)?;
            let _ = writeln!(
                out,
                "{}; {} compdists, {} page accesses, {} fsync(s)",
                if found { "deleted" } else { "not found" },
                stats.compdists,
                stats.page_accesses,
                stats.fsyncs
            );
            Ok(())
        }
        RemoteCommand::Batch {
            addr,
            queries,
            radius,
            k,
            deadline_ms,
        } => {
            let text = std::fs::read_to_string(queries)
                .map_err(|e| CliError::from(format!("open {queries:?}: {e}")))?;
            let (mut client, schema) = connect_with_schema(addr)?;
            let objs = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .map(|l| schema.encode_text(l))
                .collect::<Result<Vec<Vec<u8>>, String>>()?;
            let n = objs.len();
            let start = std::time::Instant::now();
            let per_query: Vec<(usize, spb_server::WireStats)> = if let Some(r) = radius {
                client
                    .batch_range(objs, *r, *deadline_ms)
                    .map_err(client_error)?
                    .into_iter()
                    .map(|(hits, stats)| (hits.len(), stats))
                    .collect()
            } else {
                let k = k.expect("parser guarantees one of radius/k");
                client
                    .batch_knn(objs, k, *deadline_ms)
                    .map_err(client_error)?
                    .into_iter()
                    .map(|(nn, stats)| (nn.len(), stats))
                    .collect()
            };
            let elapsed = start.elapsed().as_secs_f64();
            for (i, (results, stats)) in per_query.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "query {i}: {results} result(s); {} compdists, {} page accesses",
                    stats.compdists, stats.page_accesses
                );
            }
            let qps = if elapsed > 0.0 {
                n as f64 / elapsed
            } else {
                f64::INFINITY
            };
            let _ = writeln!(
                out,
                "# {n} queries over the wire: {elapsed:.3}s total, {qps:.1} queries/s"
            );
            Ok(())
        }
        RemoteCommand::Stats { addr } => {
            let mut client = Client::connect(addr.as_str()).map_err(client_error)?;
            match client.stats().map_err(client_error)? {
                Response::Stats {
                    schema,
                    len,
                    storage_bytes,
                    num_pivots,
                    served,
                    shed,
                    deadline_miss,
                } => {
                    let _ = writeln!(out, "schema: {schema}");
                    let _ = writeln!(out, "objects: {len}");
                    let _ = writeln!(out, "storage: {:.1} KB", storage_bytes as f64 / 1024.0);
                    let _ = writeln!(out, "pivots:  {num_pivots}");
                    let _ = writeln!(out, "served:  {served}");
                    let _ = writeln!(out, "shed:    {shed}");
                    let _ = writeln!(out, "deadline misses: {deadline_miss}");
                    // Event-loop health, pulled from the obs snapshot:
                    // live connections, poll wakeups, and how well the
                    // dispatcher is coalescing work into batches.
                    if let Ok(snap) = client.obs_stats() {
                        if let Some(v) = snap.gauge("open_connections") {
                            let _ = writeln!(out, "open connections: {v}");
                        }
                        if let Some(v) = snap.counter("readiness_wakeups") {
                            let _ = writeln!(out, "readiness wakeups: {v}");
                        }
                        if let Some(h) = snap.hist("dispatch_batch_size") {
                            let _ = writeln!(
                                out,
                                "dispatch batch size: p50 {} p90 {} max {} ({} batches)",
                                h.p50, h.p90, h.max, h.count
                            );
                        }
                        // Learned-positioning health: how often queries
                        // ride the model vs fall back to classic
                        // descent, and the last measured recall.
                        let hit = snap.counter("accel.model_hit").unwrap_or(0);
                        let fallback = snap.counter("accel.model_fallback").unwrap_or(0);
                        if hit + fallback > 0 {
                            let _ = writeln!(out, "accel model hits: {hit}");
                            let _ = writeln!(out, "accel model fallbacks: {fallback}");
                        }
                        if let Some(v) = snap.counter("accel.model_retrain") {
                            let _ = writeln!(out, "accel model retrains: {v}");
                        }
                        if let Some(v) = snap.gauge("accel.recall_permille") {
                            let _ = writeln!(out, "accel recall: {:.3}", v as f64 / 1000.0);
                        }
                    }
                    Ok(())
                }
                other => Err(CliError::from(format!("unexpected response {other:?}"))),
            }
        }
        RemoteCommand::ObsStats { addr } => {
            let mut client = Client::connect(addr.as_str()).map_err(client_error)?;
            let snapshot = client.obs_stats().map_err(client_error)?;
            render_obs_snapshot(out, &snapshot);
            Ok(())
        }
        RemoteCommand::Shutdown { addr } => {
            let mut client = Client::connect(addr.as_str()).map_err(client_error)?;
            client.shutdown().map_err(client_error)?;
            let _ = writeln!(out, "shutdown requested");
            Ok(())
        }
    }
}

/// Formats a nanosecond reading with a human unit (`1.2ms`, `340us`).
fn fmt_nanos(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}us", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}

/// Renders the server's observability snapshot as aligned tables:
/// counters, gauges, then histograms (per-phase latency histograms show
/// human-readable durations; others, e.g. `wal.commit_bytes`, raw
/// values), then any buffered trace events.
fn render_obs_snapshot(out: &mut String, snap: &spb_obs::Snapshot) {
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "counters:");
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "  {name:<32} {v}");
        }
    }
    if !snap.gauges.is_empty() {
        let _ = writeln!(out, "gauges:");
        for (name, v) in &snap.gauges {
            let _ = writeln!(out, "  {name:<32} {v}");
        }
    }
    if !snap.hists.is_empty() {
        let _ = writeln!(out, "histograms:");
        let _ = writeln!(
            out,
            "  {:<24} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "name", "count", "p50", "p90", "p99", "max"
        );
        for (name, h) in &snap.hists {
            // Phase histograms record nanoseconds; everything else
            // (sizes, counts) prints raw.
            let fmt: fn(u64) -> String = if name.starts_with("phase.") {
                fmt_nanos
            } else {
                |v| v.to_string()
            };
            let _ = writeln!(
                out,
                "  {:<24} {:>8} {:>10} {:>10} {:>10} {:>10}",
                name,
                h.count,
                fmt(h.p50),
                fmt(h.p90),
                fmt(h.p99),
                fmt(h.max)
            );
        }
    }
    if !snap.traces.is_empty() {
        let _ = writeln!(out, "traces ({} event(s)):", snap.traces.len());
        for ev in &snap.traces {
            let _ = writeln!(
                out,
                "  +{:<12} {:<24} {}",
                fmt_nanos(ev.at_nanos),
                ev.name,
                fmt_nanos(ev.dur_nanos)
            );
        }
    }
}

fn run_local(cmd: &Command, out: &mut String) -> Result<(), String> {
    match cmd {
        Command::Build {
            input,
            index,
            schema_flag,
            pivots,
            curve,
            accel,
        } => {
            let curve = parse_curve(curve)?;
            let accel = parse_accel(accel)?;
            let cfg = SpbConfig {
                num_pivots: *pivots,
                curve,
                accel,
                ..SpbConfig::default()
            };
            let file = std::fs::File::open(input).map_err(|e| format!("open {input:?}: {e}"))?;
            let reader = io::BufReader::new(file);
            match schema_flag.as_str() {
                "words" => {
                    let words = load_words(reader).map_err(|e| e.to_string())?;
                    if words.is_empty() {
                        return Err("input file holds no words".to_owned());
                    }
                    let max_len = words.iter().map(Word::len).max().unwrap_or(1);
                    let metric = EditDistance::new(max_len);
                    let tree =
                        SpbTree::build(index, &words, metric, &cfg).map_err(|e| e.to_string())?;
                    std::fs::write(schema_path(index), Schema::Words { max_len }.to_line())
                        .map_err(|e| e.to_string())?;
                    report_build(out, tree.build_stats(), tree.storage_bytes());
                }
                "vectors:l2" | "vectors:l5" => {
                    let (vecs, dim) = load_vectors(reader).map_err(|e| e.to_string())?;
                    if vecs.is_empty() {
                        return Err("input file holds no vectors".to_owned());
                    }
                    let p: u32 = if schema_flag.ends_with("l2") { 2 } else { 5 };
                    let metric = LpNorm::new(p as f64, dim, 1.0);
                    let tree =
                        SpbTree::build(index, &vecs, metric, &cfg).map_err(|e| e.to_string())?;
                    std::fs::write(schema_path(index), Schema::Vectors { p, dim }.to_line())
                        .map_err(|e| e.to_string())?;
                    report_build(out, tree.build_stats(), tree.storage_bytes());
                }
                other => {
                    return Err(format!(
                        "unknown schema {other:?} (expected words|vectors:l2|vectors:l5)"
                    ))
                }
            }
            Ok(())
        }
        Command::Range {
            index,
            query,
            radius,
        } => with_index(index, |idx| match idx {
            Index::Words(tree) => {
                let (hits, stats) = tree
                    .range(&Word::new(query.clone()), *radius)
                    .map_err(|e| e.to_string())?;
                for (id, w) in &hits {
                    let _ = writeln!(out, "{id}\t{}", w.as_str());
                }
                report_query(out, hits.len(), &stats);
                Ok(())
            }
            Index::Vectors(tree, dim) => {
                let q = parse_vector(query, dim)?;
                let (hits, stats) = tree.range(&q, *radius).map_err(|e| e.to_string())?;
                for (id, _) in &hits {
                    let _ = writeln!(out, "{id}");
                }
                report_query(out, hits.len(), &stats);
                Ok(())
            }
        }),
        Command::Count {
            index,
            query,
            radius,
        } => with_index(index, |idx| match idx {
            Index::Words(tree) => {
                let (count, stats) = tree
                    .range_count(&Word::new(query.clone()), *radius)
                    .map_err(|e| e.to_string())?;
                let _ = writeln!(out, "{count}");
                report_query(out, count as usize, &stats);
                Ok(())
            }
            Index::Vectors(tree, dim) => {
                let q = parse_vector(query, dim)?;
                let (count, stats) = tree.range_count(&q, *radius).map_err(|e| e.to_string())?;
                let _ = writeln!(out, "{count}");
                report_query(out, count as usize, &stats);
                Ok(())
            }
        }),
        Command::Knn {
            index,
            query,
            plan,
            approx,
            recall_target,
        } => with_index(index, |idx| match idx {
            Index::Words(tree) => {
                let q = Word::new(query.clone());
                let (nn, stats) = run_knn_tuned(out, tree, &q, *plan, *approx, *recall_target)?;
                for (id, w, d) in &nn {
                    let _ = writeln!(out, "{id}\t{d}\t{}", w.as_str());
                }
                report_query(out, nn.len(), &stats);
                Ok(())
            }
            Index::Vectors(tree, dim) => {
                let q = parse_vector(query, dim)?;
                let (nn, stats) = run_knn_tuned(out, tree, &q, *plan, *approx, *recall_target)?;
                for (id, _, d) in &nn {
                    let _ = writeln!(out, "{id}\t{d}");
                }
                report_query(out, nn.len(), &stats);
                Ok(())
            }
        }),
        Command::Batch {
            index,
            queries,
            radius,
            k,
            threads,
        } => {
            let text =
                std::fs::read_to_string(queries).map_err(|e| format!("open {queries:?}: {e}"))?;
            let lines: Vec<&str> = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .collect();
            with_index_sharded(index, *threads, |idx| match idx {
                Index::Words(tree) => {
                    let qs: Vec<Word> = lines.iter().map(|l| Word::new(*l)).collect();
                    run_batch(out, tree, &qs, *radius, *k, *threads)
                }
                Index::Vectors(tree, dim) => {
                    let qs = lines
                        .iter()
                        .map(|l| parse_vector(l, dim))
                        .collect::<Result<Vec<FloatVec>, String>>()?;
                    run_batch(out, tree, &qs, *radius, *k, *threads)
                }
            })
        }
        Command::Stats { index } => with_index(index, |idx| {
            match idx {
                Index::Words(tree) => {
                    let _ = writeln!(out, "schema: words");
                    describe(
                        out,
                        tree.len(),
                        tree.storage_bytes(),
                        tree.table().num_pivots(),
                        tree.table().delta(),
                    );
                }
                Index::Vectors(tree, dim) => {
                    let _ = writeln!(out, "schema: vectors (dim {dim})");
                    describe(
                        out,
                        tree.len(),
                        tree.storage_bytes(),
                        tree.table().num_pivots(),
                        tree.table().delta(),
                    );
                }
            }
            Ok(())
        }),
        Command::Verify { index } => {
            let report = spb_core::verify_dir(index).map_err(|e| e.to_string())?;
            let _ = writeln!(
                out,
                "checked {} page(s), {} entrie(s)",
                report.pages_checked, report.entries_checked
            );
            if report.ok() {
                let _ = writeln!(out, "ok");
                Ok(())
            } else {
                for p in &report.problems {
                    let _ = writeln!(out, "problem: {}: {}", p.file, p.detail);
                }
                Err(format!("{} problem(s) found", report.problems.len()))
            }
        }
        Command::Recover { index } => {
            let report = spb_core::recover_dir(index).map_err(|e| e.to_string())?;
            if report.clean() {
                let _ = writeln!(out, "clean: nothing to recover");
            } else {
                let _ = writeln!(
                    out,
                    "recovered: {} txn(s) redone ({} page image(s)), {} txn(s) discarded, \
                     {} torn WAL byte(s), {} torn data byte(s)",
                    report.redone_txns,
                    report.redone_pages,
                    report.discarded_txns,
                    report.torn_wal_bytes,
                    report.torn_data_bytes
                );
            }
            Ok(())
        }
        Command::Cluster {
            input,
            shards,
            replicas,
            dir,
        } => {
            let file = std::fs::File::open(input).map_err(|e| format!("open {input:?}: {e}"))?;
            let words = load_words(io::BufReader::new(file)).map_err(|e| e.to_string())?;
            if words.len() < 2 {
                return Err("cluster needs at least two input words".to_owned());
            }
            let (base, throwaway) = match dir {
                Some(d) => (d.clone(), false),
                None => (
                    std::env::temp_dir().join(format!("spb-cluster-{}", std::process::id())),
                    true,
                ),
            };
            let result = run_cluster(out, &words, *shards, *replicas, &base);
            if throwaway {
                let _ = std::fs::remove_dir_all(&base);
            }
            result
        }
        Command::Serve { .. } | Command::Remote(_) => unreachable!("dispatched in run"),
    }
}

/// `spb-cli cluster`: launch, cross-check against a single node, then
/// (with replicas) kill shard 0's primary and cross-check again. Every
/// probe compares byte-for-byte; any divergence aborts with the failing
/// query in the message.
fn run_cluster(
    out: &mut String,
    words: &[Word],
    shards: usize,
    replicas: usize,
    base: &Path,
) -> Result<(), String> {
    let max_len = words.iter().map(Word::len).max().unwrap_or(1);
    let metric = EditDistance::new(max_len);
    let cfg = spb_cluster::ClusterConfig {
        shards,
        replicas,
        ..spb_cluster::ClusterConfig::default()
    };
    let mut cluster = spb_cluster::Cluster::launch(
        &base.join("cluster"),
        words,
        metric,
        Schema::Words { max_len },
        &cfg,
    )
    .map_err(|e| format!("cluster launch: {e}"))?;
    let _ = writeln!(
        out,
        "launched {} shard(s), {replicas} replica(s) each, over {} object(s)",
        cluster.num_shards(),
        words.len()
    );
    let reference = SpbTree::build(&base.join("single"), words, metric, &SpbConfig::default())
        .map_err(|e| format!("single-node build: {e}"))?;

    // Probe with real members (hits guaranteed) plus their neighbourhood.
    let probes: Vec<Word> = words.iter().take(8).cloned().collect();
    let router = cluster.router();
    let mut checks = 0usize;
    for q in &probes {
        for r in [1.0, 2.0] {
            compare_range(&router, &reference, q, r)?;
            checks += 1;
        }
        for k in [3usize, 10] {
            compare_knn(&router, &reference, q, k)?;
            checks += 1;
        }
    }
    let _ = writeln!(
        out,
        "cluster-identical: OK ({checks} checks across {} shard(s))",
        cluster.num_shards()
    );

    if replicas > 0 {
        cluster
            .sync_replicas()
            .map_err(|e| format!("replica sync: {e}"))?;
        cluster
            .kill_primary(0)
            .map_err(|e| format!("primary kill: {e}"))?;
        let router = cluster.router();
        for q in &probes {
            compare_range(&router, &reference, q, 2.0)?;
            compare_knn(&router, &reference, q, 3)?;
        }
        let _ = writeln!(
            out,
            "failover: OK (shard 0 primary killed; replicas answered identically)"
        );
    }
    cluster.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    Ok(())
}

fn compare_range(
    router: &spb_cluster::Router<Word, EditDistance>,
    reference: &SpbTree<Word, EditDistance>,
    q: &Word,
    r: f64,
) -> Result<(), String> {
    let (got, _) = router
        .range(q, r)
        .map_err(|e| format!("router range: {e}"))?;
    let (hits, _) = reference.range(q, r).map_err(|e| e.to_string())?;
    let mut want: Vec<(u32, Vec<u8>)> = hits
        .into_iter()
        .map(|(id, o)| (id, spb_metric::MetricObject::encoded(&o)))
        .collect();
    want.sort_unstable_by_key(|&(id, _)| id);
    if got != want {
        return Err(format!(
            "cluster-identical: FAILED on range({:?}, {r}): cluster {} hit(s), single node {}",
            q.as_str(),
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

fn compare_knn(
    router: &spb_cluster::Router<Word, EditDistance>,
    reference: &SpbTree<Word, EditDistance>,
    q: &Word,
    k: usize,
) -> Result<(), String> {
    let (got, _) = router.knn(q, k).map_err(|e| format!("router knn: {e}"))?;
    let (nn, _) = reference.knn(q, k).map_err(|e| e.to_string())?;
    let want: Vec<(u32, f64, Vec<u8>)> = nn
        .into_iter()
        .map(|(id, o, d)| (id, d, spb_metric::MetricObject::encoded(&o)))
        .collect();
    if got != want {
        return Err(format!(
            "cluster-identical: FAILED on knn({:?}, {k})",
            q.as_str()
        ));
    }
    Ok(())
}

enum Index {
    Words(SpbTree<Word, EditDistance>),
    Vectors(SpbTree<FloatVec, LpNorm>, usize),
}

fn with_index<F>(index: &Path, f: F) -> Result<(), String>
where
    F: FnOnce(&Index) -> Result<(), String>,
{
    with_index_sharded(index, 1, f)
}

fn with_index_sharded<F>(index: &Path, shards: usize, f: F) -> Result<(), String>
where
    F: FnOnce(&Index) -> Result<(), String>,
{
    let line = std::fs::read_to_string(schema_path(index)).map_err(|e| {
        format!(
            "read {:?}: {e} (is this an spb-cli index?)",
            schema_path(index)
        )
    })?;
    let schema = Schema::from_line(line.trim())?;
    let idx = match schema {
        Schema::Words { max_len } => Index::Words(
            SpbTree::open_sharded(index, EditDistance::new(max_len), 32, true, shards)
                .map_err(|e| e.to_string())?,
        ),
        Schema::Vectors { p, dim } => Index::Vectors(
            SpbTree::open_sharded(index, LpNorm::new(p as f64, dim, 1.0), 32, true, shards)
                .map_err(|e| e.to_string())?,
            dim,
        ),
    };
    f(&idx)
}

/// Runs a parsed batch (range when `radius` is set, kNN otherwise) and
/// reports per-query costs plus aggregate throughput.
fn run_batch<O, D>(
    out: &mut String,
    tree: &SpbTree<O, D>,
    qs: &[O],
    radius: Option<f64>,
    k: Option<usize>,
    threads: usize,
) -> Result<(), String>
where
    O: spb_metric::MetricObject,
    D: spb_metric::Distance<O>,
{
    let start = std::time::Instant::now();
    let per_query: Vec<(usize, spb_core::QueryStats)> = if let Some(r) = radius {
        let pairs: Vec<(O, f64)> = qs.iter().cloned().map(|q| (q, r)).collect();
        tree.range_batch(&pairs, threads)
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(|(hits, stats)| (hits.len(), stats))
            .collect()
    } else {
        let k = k.expect("parser guarantees one of radius/k");
        tree.knn_batch(qs, k, threads)
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(|(nn, stats)| (nn.len(), stats))
            .collect()
    };
    let elapsed = start.elapsed().as_secs_f64();
    for (i, (results, stats)) in per_query.iter().enumerate() {
        let _ = writeln!(
            out,
            "query {i}: {results} result(s); {} compdists, {} page accesses",
            stats.compdists, stats.page_accesses
        );
    }
    let qps = if elapsed > 0.0 {
        per_query.len() as f64 / elapsed
    } else {
        f64::INFINITY
    };
    let _ = writeln!(
        out,
        "# {} queries on {threads} thread(s): {:.3}s total, {qps:.1} queries/s",
        per_query.len(),
        elapsed
    );
    Ok(())
}

fn parse_vector(query: &str, dim: &usize) -> Result<FloatVec, String> {
    let coords: Result<Vec<f32>, _> = query.split(',').map(|c| c.trim().parse()).collect();
    let coords = coords.map_err(|e| format!("bad query vector: {e}"))?;
    if coords.len() != *dim {
        return Err(format!(
            "query has {} coordinates; the index stores {dim}-dimensional vectors",
            coords.len()
        ));
    }
    Ok(FloatVec::new(coords))
}

fn report_build(out: &mut String, b: spb_core::BuildStats, storage: u64) {
    let _ = writeln!(
        out,
        "built: {} objects, {} distance computations, {} page accesses, {:.1} KB, {:.2}s",
        b.num_objects,
        b.compdists,
        b.page_accesses,
        storage as f64 / 1024.0,
        b.duration.as_secs_f64()
    );
}

fn report_query(out: &mut String, results: usize, stats: &spb_core::QueryStats) {
    let _ = writeln!(
        out,
        "# {results} result(s); {} compdists, {} page accesses, {:.3} ms",
        stats.compdists,
        stats.page_accesses,
        stats.duration.as_secs_f64() * 1e3
    );
    if let Some(recall) = stats.recall {
        let _ = writeln!(out, "# recall: {recall:.3}");
    }
}

/// A kNN answer: `(id, object, distance)` triples plus query stats.
type KnnAnswer<O> = (Vec<(u32, O, f64)>, spb_core::QueryStats);

/// Runs a local kNN query with the requested accuracy mode:
/// `--recall-target` auto-tunes `alpha` on the query itself (walking
/// the ladder, exact `1.0` last), `--approx` measures recall for the
/// plan's `alpha`, and the default runs the plan unmeasured (exact
/// without an `alpha`).
fn run_knn_tuned<O, D>(
    out: &mut String,
    tree: &SpbTree<O, D>,
    q: &O,
    plan: QueryPlan,
    approx: bool,
    recall_target: Option<f64>,
) -> Result<KnnAnswer<O>, String>
where
    O: spb_metric::MetricObject,
    D: spb_metric::Distance<O>,
{
    let (k, alpha) = (knn_k(plan)?, plan.factor());
    if let Some(target) = recall_target {
        let tuned = tree
            .tune_knn_alpha(std::slice::from_ref(q), k, target)
            .map_err(|e| e.to_string())?;
        let _ = writeln!(
            out,
            "# tuned alpha: {} (measured recall {:.3}, target {target})",
            tuned.param, tuned.achieved
        );
        tree.knn_approx_measured(q, k, tuned.param)
            .map_err(|e| e.to_string())
    } else if approx {
        tree.knn_approx_measured(q, k, alpha)
            .map_err(|e| e.to_string())
    } else {
        tree.knn_approx(q, k, alpha).map_err(|e| e.to_string())
    }
}

fn describe(out: &mut String, len: u64, storage: u64, pivots: usize, delta: f64) {
    let _ = writeln!(out, "objects: {len}");
    let _ = writeln!(out, "storage: {:.1} KB", storage as f64 / 1024.0);
    let _ = writeln!(out, "pivots:  {pivots}");
    let _ = writeln!(out, "delta:   {delta}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_owned()).collect()
    }

    fn knn(k: usize, alpha: Option<f64>) -> QueryPlan {
        QueryPlan::new(QueryShape::Knn { k }, alpha).unwrap()
    }

    #[test]
    fn parses_build() {
        let cmd = parse_args(&args(
            "build --input words.txt --index ./idx --pivots 7 --curve z",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Build {
                input: "words.txt".into(),
                index: "./idx".into(),
                schema_flag: "words".into(),
                pivots: 7,
                curve: "z".into(),
                accel: "off".into(),
            }
        );
    }

    #[test]
    fn parses_queries_with_defaults() {
        let cmd = parse_args(&args("knn --index ./idx --query hello")).unwrap();
        assert_eq!(
            cmd,
            Command::Knn {
                index: "./idx".into(),
                query: "hello".into(),
                plan: knn(10, None),
                approx: false,
                recall_target: None,
            }
        );
        assert!(parse_args(&args("range --index ./idx --query hello")).is_err());
        assert!(parse_args(&args("bogus --x y")).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn parses_approx_flags() {
        // `--approx` is a bare switch (no value), composable with other
        // flags in any position.
        let cmd = parse_args(&args(
            "knn --index ./idx --approx --query hello --alpha 2.0",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Knn {
                index: "./idx".into(),
                query: "hello".into(),
                plan: knn(10, Some(2.0)),
                approx: true,
                recall_target: None,
            }
        );
        let cmd = parse_args(&args("knn --index ./idx --query hello --recall-target 0.9")).unwrap();
        assert_eq!(
            cmd,
            Command::Knn {
                index: "./idx".into(),
                query: "hello".into(),
                plan: knn(10, None),
                approx: false,
                recall_target: Some(0.9),
            }
        );
        assert!(parse_args(&args(
            "knn --index ./idx --query hello --recall-target high"
        ))
        .is_err());
        // Local and remote share one flag -> plan function: a bare
        // `--approx` is the approximate mode at alpha 1, a remote
        // `--alpha` needs no `--approx`, and an alpha the plan rejects is
        // a usage error on both (it used to panic the local command).
        for cmd in ["knn --index ./idx", "remote knn --addr 127.0.0.1:7878"] {
            for alpha in ["0.5", "nan", "inf", "-2"] {
                let err =
                    parse_args(&args(&format!("{cmd} --query hello --alpha {alpha}"))).unwrap_err();
                assert!(err.starts_with("--alpha: "), "{cmd} --alpha {alpha}: {err}");
            }
            let plan_of =
                |extra: &str| match parse_args(&args(&format!("{cmd} --query hello {extra}")))
                    .unwrap()
                {
                    Command::Knn { plan, .. }
                    | Command::Remote(RemoteCommand::Knn { plan, .. }) => plan,
                    other => panic!("{other:?}"),
                };
            assert_eq!(plan_of("--k 3"), knn(3, None));
            assert_eq!(plan_of("--approx"), knn(10, Some(1.0)));
            assert_eq!(plan_of("--alpha 1.8"), knn(10, Some(1.8)));
        }
        let cmd = parse_args(&args(
            "remote knn --addr 127.0.0.1:7878 --query hello --approx --alpha 1.5",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Remote(RemoteCommand::Knn {
                addr: "127.0.0.1:7878".into(),
                query: "hello".into(),
                plan: knn(10, Some(1.5)),
                deadline_ms: 0,
            })
        );
    }

    #[test]
    fn schema_roundtrip() {
        for s in [
            Schema::Words { max_len: 34 },
            Schema::Vectors { p: 5, dim: 16 },
        ] {
            assert_eq!(Schema::from_line(&s.to_line()).unwrap(), s);
        }
        assert!(Schema::from_line("nonsense").is_err());
    }

    #[test]
    fn loads_words_and_vectors() {
        let words = load_words(io::Cursor::new("alpha\n\n beta \n")).unwrap();
        assert_eq!(words.len(), 2);
        assert_eq!(words[1].as_str(), "beta");

        let (vecs, dim) = load_vectors(io::Cursor::new("0.1, 0.2\n0.3,0.4\n")).unwrap();
        assert_eq!((vecs.len(), dim), (2, 2));
        assert!(load_vectors(io::Cursor::new("0.1,0.2\n0.3\n")).is_err());
        assert!(load_vectors(io::Cursor::new("0.1,zzz\n")).is_err());
    }

    #[test]
    fn build_then_query_roundtrip() {
        let dir = std::env::temp_dir().join(format!("spbcli-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("words.txt");
        std::fs::write(&data, "carrot\ncarrots\nparrot\nbanana\napple\n").unwrap();
        let index = dir.join("idx");

        let mut out = String::new();
        run(
            &Command::Build {
                input: data,
                index: index.clone(),
                schema_flag: "words".into(),
                pivots: 2,
                curve: "hilbert".into(),
                accel: "off".into(),
            },
            &mut out,
        )
        .unwrap();
        assert!(out.contains("built: 5 objects"));

        let mut out = String::new();
        run(
            &Command::Range {
                index: index.clone(),
                query: "carrot".into(),
                radius: 1.0,
            },
            &mut out,
        )
        .unwrap();
        assert!(out.contains("carrot"));
        assert!(out.contains("carrots"));
        assert!(!out.contains("banana"));

        let mut out = String::new();
        run(
            &Command::Knn {
                index: index.clone(),
                query: "parrots".into(),
                plan: knn(2, None),
                approx: false,
                recall_target: None,
            },
            &mut out,
        )
        .unwrap();
        assert!(out.contains("parrot"));

        // `--recall-target` tunes alpha and reports measured recall.
        let mut out = String::new();
        run(
            &Command::Knn {
                index: index.clone(),
                query: "parrots".into(),
                plan: knn(2, None),
                approx: false,
                recall_target: Some(1.0),
            },
            &mut out,
        )
        .unwrap();
        assert!(out.contains("tuned alpha"), "missing tune report: {out}");
        assert!(out.contains("# recall:"), "missing recall line: {out}");

        let mut out = String::new();
        run(
            &Command::Stats {
                index: index.clone(),
            },
            &mut out,
        )
        .unwrap();
        assert!(out.contains("objects: 5"));

        // `--accel learned` persists a model next to the index and the
        // learned index answers identically.
        let accel_index = dir.join("idx-accel");
        let data2 = dir.join("words2.txt");
        std::fs::write(&data2, "carrot\ncarrots\nparrot\nbanana\napple\n").unwrap();
        let mut out = String::new();
        run(
            &Command::Build {
                input: data2,
                index: accel_index.clone(),
                schema_flag: "words".into(),
                pivots: 2,
                curve: "hilbert".into(),
                accel: "learned".into(),
            },
            &mut out,
        )
        .unwrap();
        assert!(accel_index.join("spb.model").exists());
        let mut out = String::new();
        run(
            &Command::Range {
                index: accel_index,
                query: "carrot".into(),
                radius: 1.0,
            },
            &mut out,
        )
        .unwrap();
        assert!(out.contains("carrots"));

        // A freshly built index verifies clean and has nothing to recover.
        let mut out = String::new();
        run(
            &Command::Verify {
                index: index.clone(),
            },
            &mut out,
        )
        .unwrap();
        assert!(out.contains("ok"), "out = {out}");

        let mut out = String::new();
        run(
            &Command::Recover {
                index: index.clone(),
            },
            &mut out,
        )
        .unwrap();
        assert!(out.contains("clean"), "out = {out}");

        // Corrupt a page: verify reports it instead of passing.
        let bpt = index.join("index.bpt");
        let mut bytes = std::fs::read(&bpt).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&bpt, &bytes).unwrap();
        let mut out = String::new();
        let err = run(&Command::Verify { index }, &mut out).unwrap_err();
        assert!(err.message.contains("problem"), "err = {err}, out = {out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_batch() {
        let cmd = parse_args(&args(
            "batch --index ./idx --queries q.txt --radius 2 --threads 4",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Batch {
                index: "./idx".into(),
                queries: "q.txt".into(),
                radius: Some(2.0),
                k: None,
                threads: 4,
            }
        );
        let cmd = parse_args(&args("batch --index ./idx --queries q.txt --k 3")).unwrap();
        assert_eq!(
            cmd,
            Command::Batch {
                index: "./idx".into(),
                queries: "q.txt".into(),
                radius: None,
                k: Some(3),
                threads: 1,
            }
        );
        // Exactly one of --radius / --k.
        assert!(parse_args(&args("batch --index ./idx --queries q.txt")).is_err());
        assert!(parse_args(&args(
            "batch --index ./idx --queries q.txt --radius 1 --k 3"
        ))
        .is_err());
    }

    #[test]
    fn batch_roundtrip() {
        let dir = std::env::temp_dir().join(format!("spbcli-batch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("words.txt");
        std::fs::write(&data, "carrot\ncarrots\nparrot\nbanana\napple\n").unwrap();
        let index = dir.join("idx");
        let mut out = String::new();
        run(
            &Command::Build {
                input: data,
                index: index.clone(),
                schema_flag: "words".into(),
                pivots: 2,
                curve: "hilbert".into(),
                accel: "off".into(),
            },
            &mut out,
        )
        .unwrap();

        let qfile = dir.join("queries.txt");
        std::fs::write(&qfile, "carrot\nbanana\n").unwrap();
        let mut out = String::new();
        run(
            &Command::Batch {
                index: index.clone(),
                queries: qfile.clone(),
                radius: Some(1.0),
                k: None,
                threads: 2,
            },
            &mut out,
        )
        .unwrap();
        // carrot → {carrot, carrots, parrot} at edit distance ≤ 1.
        assert!(out.contains("query 0: 3 result(s)"), "out = {out}");
        assert!(out.contains("query 1: 1 result(s)"), "out = {out}");
        assert!(out.contains("2 queries on 2 thread(s)"), "out = {out}");

        let mut out = String::new();
        run(
            &Command::Batch {
                index,
                queries: qfile,
                radius: None,
                k: Some(2),
                threads: 2,
            },
            &mut out,
        )
        .unwrap();
        assert!(out.contains("query 0: 2 result(s)"), "out = {out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_verify_and_recover() {
        assert_eq!(
            parse_args(&args("verify --index ./idx")).unwrap(),
            Command::Verify {
                index: "./idx".into()
            }
        );
        assert_eq!(
            parse_args(&args("recover --index ./idx")).unwrap(),
            Command::Recover {
                index: "./idx".into()
            }
        );
        assert!(parse_args(&args("verify")).is_err());
    }

    #[test]
    fn vector_index_roundtrip() {
        let dir = std::env::temp_dir().join(format!("spbcli-vec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("vecs.csv");
        std::fs::write(&data, "0.1,0.1\n0.12,0.1\n0.9,0.9\n").unwrap();
        let index = dir.join("idx");

        let mut out = String::new();
        run(
            &Command::Build {
                input: data,
                index: index.clone(),
                schema_flag: "vectors:l2".into(),
                pivots: 2,
                curve: "hilbert".into(),
                accel: "off".into(),
            },
            &mut out,
        )
        .unwrap();

        let mut out = String::new();
        run(
            &Command::Count {
                index: index.clone(),
                query: "0.1,0.1".into(),
                radius: 0.05,
            },
            &mut out,
        )
        .unwrap();
        assert!(out.starts_with("2\n"), "out = {out}");

        // Wrong dimensionality is a helpful error, not a panic.
        let mut out = String::new();
        let err = run(
            &Command::Range {
                index,
                query: "0.1".into(),
                radius: 0.1,
            },
            &mut out,
        )
        .unwrap_err();
        assert!(err.message.contains("2-dimensional"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_serve_and_remote() {
        let cmd = parse_args(&args(
            "serve --index ./idx --addr 127.0.0.1:9000 --max-inflight 2",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                index: "./idx".into(),
                addr: "127.0.0.1:9000".into(),
                max_inflight: 2,
                max_queue: 64,
                max_connections: 64,
                threads: 4,
                trace: false,
            }
        );
        let cmd = parse_args(&args("serve --index ./idx --trace on")).unwrap();
        assert!(matches!(cmd, Command::Serve { trace: true, .. }));
        assert!(parse_args(&args("serve --index ./idx --trace maybe")).is_err());
        let cmd = parse_args(&args("stats --addr 127.0.0.1:9000")).unwrap();
        assert_eq!(
            cmd,
            Command::Remote(RemoteCommand::ObsStats {
                addr: "127.0.0.1:9000".into(),
            })
        );
        let cmd = parse_args(&args(
            "remote range --addr localhost:9000 --query carrot --radius 1 --deadline-ms 500",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Remote(RemoteCommand::Range {
                addr: "localhost:9000".into(),
                query: "carrot".into(),
                radius: 1.0,
                deadline_ms: 500,
            })
        );
        assert!(parse_args(&args("remote --addr x:1")).is_err(), "no sub");
        assert!(
            parse_args(&args("remote bogus --addr x:1")).is_err(),
            "bad sub"
        );
        assert!(
            parse_args(&args("remote range --query q --radius 1")).is_err(),
            "no addr"
        );
        assert!(
            parse_args(&args(
                "remote batch --addr x:1 --queries q.txt --radius 1 --k 2"
            ))
            .is_err(),
            "both radius and k"
        );
    }

    #[test]
    fn parses_cluster() {
        let cmd = parse_args(&args("cluster --input words.txt --shards 3 --replicas 1")).unwrap();
        assert_eq!(
            cmd,
            Command::Cluster {
                input: "words.txt".into(),
                shards: 3,
                replicas: 1,
                dir: None,
            }
        );
        let cmd = parse_args(&args("cluster --input w.txt --dir ./work")).unwrap();
        assert_eq!(
            cmd,
            Command::Cluster {
                input: "w.txt".into(),
                shards: 2,
                replicas: 0,
                dir: Some("./work".into()),
            }
        );
        assert!(parse_args(&args("cluster --shards 2")).is_err(), "no input");
    }

    #[test]
    fn cluster_roundtrip_prints_greppable_markers() {
        let dir = std::env::temp_dir().join(format!("spbcli-cluster-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("words.txt");
        let mut text = String::new();
        for i in 0..60 {
            let _ = writeln!(text, "word{:03}x{}", i, "abcdefgh".split_at(i % 8).0);
        }
        std::fs::write(&data, text).unwrap();

        let mut out = String::new();
        run(
            &Command::Cluster {
                input: data,
                shards: 3,
                replicas: 1,
                dir: Some(dir.join("work")),
            },
            &mut out,
        )
        .unwrap();
        assert!(out.contains("cluster-identical: OK"), "out = {out}");
        assert!(out.contains("failover: OK"), "out = {out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: a *newer* server's error reply — unknown error-code
    /// byte, `server_version: 2`, trailing body fields this client has
    /// never heard of — must exit with the dedicated version-mismatch
    /// code, not trip over the unknown bytes and exit 1. The frame is
    /// handcrafted so the test pins the wire layout, not our encoder.
    #[test]
    fn remote_version_mismatch_from_newer_server_exits_13() {
        use std::io::{Read as _, Write as _};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            // Drain the client's ping frame: header, then payload.
            let mut header = [0u8; spb_server::wire::FRAME_HEADER];
            conn.read_exact(&mut header).unwrap();
            let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
            let mut payload = vec![0u8; len as usize];
            conn.read_exact(&mut payload).unwrap();
            // Reply: OP_ERROR (0xFF), error code 99 (unknown to v1),
            // server_version 2, an lstr message, then two trailing bytes
            // of imaginary v2 body the client must ignore.
            let mut body = vec![spb_server::PROTOCOL_VERSION, 0xFF, 99, 2];
            let msg = b"speak v2";
            body.extend_from_slice(&(msg.len() as u32).to_le_bytes());
            body.extend_from_slice(msg);
            body.extend_from_slice(&[0xDE, 0xAD]);
            spb_server::wire::write_frame(&mut conn, &body).unwrap();
            conn.flush().unwrap();
        });

        let mut out = String::new();
        let err = run(&Command::Remote(RemoteCommand::Ping { addr }), &mut out).unwrap_err();
        server.join().unwrap();
        assert_eq!(err.code, EXIT_VERSION, "message: {}", err.message);
        assert!(err.message.contains('2'), "message: {}", err.message);
    }

    #[test]
    fn remote_connection_refused_maps_to_exit_10() {
        // Port 1 on localhost: nothing listens there.
        let mut out = String::new();
        let err = run(
            &Command::Remote(RemoteCommand::Ping {
                addr: "127.0.0.1:1".into(),
            }),
            &mut out,
        )
        .unwrap_err();
        assert_eq!(err.code, EXIT_CONNECT, "message: {}", err.message);
    }

    #[test]
    fn client_errors_map_to_distinct_exit_codes() {
        let server_err = |code| ClientError::Server {
            code,
            server_version: 1,
            message: "x".into(),
        };
        assert_eq!(
            client_error(server_err(ErrorCode::Overloaded)).code,
            EXIT_OVERLOADED
        );
        assert_eq!(
            client_error(server_err(ErrorCode::DeadlineExceeded)).code,
            EXIT_DEADLINE
        );
        assert_eq!(
            client_error(server_err(ErrorCode::VersionMismatch)).code,
            EXIT_VERSION
        );
        assert_eq!(client_error(server_err(ErrorCode::Internal)).code, 1);
        assert_eq!(
            client_error(ClientError::Wire(spb_server::WireError::VersionMismatch {
                got: 9
            }))
            .code,
            EXIT_VERSION
        );
    }

    #[test]
    fn serve_then_remote_roundtrip() {
        let dir = std::env::temp_dir().join(format!("spbcli-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("words.txt");
        std::fs::write(&data, "carrot\ncarrots\nparrot\nbanana\napple\n").unwrap();
        let index = dir.join("idx");
        let mut out = String::new();
        run(
            &Command::Build {
                input: data,
                index: index.clone(),
                schema_flag: "words".into(),
                pivots: 2,
                curve: "hilbert".into(),
                accel: "off".into(),
            },
            &mut out,
        )
        .unwrap();

        // Serve on an OS-assigned port in a background thread; learn the
        // address through the on_start hook.
        let (tx, rx) = std::sync::mpsc::channel();
        let idx = index.clone();
        let server = std::thread::spawn(move || {
            serve_blocking(&idx, "127.0.0.1:0", ServerConfig::default(), |a| {
                tx.send(a).unwrap();
            })
        });
        let addr = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap()
            .to_string();

        let mut out = String::new();
        run(
            &Command::Remote(RemoteCommand::Ping { addr: addr.clone() }),
            &mut out,
        )
        .unwrap();
        assert!(out.contains("objects: 5"), "out = {out}");

        let mut out = String::new();
        run(
            &Command::Remote(RemoteCommand::Range {
                addr: addr.clone(),
                query: "carrot".into(),
                radius: 1.0,
                deadline_ms: 0,
            }),
            &mut out,
        )
        .unwrap();
        assert!(out.contains("carrots"), "out = {out}");
        assert!(!out.contains("banana"), "out = {out}");

        let mut out = String::new();
        run(
            &Command::Remote(RemoteCommand::Insert {
                addr: addr.clone(),
                object: "carrotz".into(),
                deadline_ms: 0,
            }),
            &mut out,
        )
        .unwrap();
        assert!(out.contains("inserted"), "out = {out}");

        let qfile = dir.join("queries.txt");
        std::fs::write(&qfile, "carrot\nbanana\n").unwrap();
        let mut out = String::new();
        run(
            &Command::Remote(RemoteCommand::Batch {
                addr: addr.clone(),
                queries: qfile,
                radius: Some(1.0),
                k: None,
                deadline_ms: 0,
            }),
            &mut out,
        )
        .unwrap();
        // carrot → {carrot, carrots, carrotz, parrot} at distance ≤ 1.
        assert!(out.contains("query 0: 4 result(s)"), "out = {out}");
        assert!(out.contains("query 1: 1 result(s)"), "out = {out}");

        let mut out = String::new();
        run(
            &Command::Remote(RemoteCommand::Stats { addr: addr.clone() }),
            &mut out,
        )
        .unwrap();
        assert!(out.contains("objects: 6"), "out = {out}");
        assert!(out.contains("deadline misses: 0"), "out = {out}");

        // The observability snapshot travels the wire and renders: the
        // batch above must show up in the served counter and leave at
        // least one traversal-phase latency sample.
        let mut out = String::new();
        run(
            &Command::Remote(RemoteCommand::ObsStats { addr: addr.clone() }),
            &mut out,
        )
        .unwrap();
        assert!(out.contains("admission.served"), "out = {out}");
        assert!(out.contains("phase.traversal"), "out = {out}");

        let mut out = String::new();
        run(&Command::Remote(RemoteCommand::Shutdown { addr }), &mut out).unwrap();
        server.join().unwrap().unwrap();

        // The shutdown drained and checkpointed: the index reopens clean.
        let mut out = String::new();
        run(&Command::Verify { index }, &mut out).unwrap();
        assert!(out.contains("ok"), "out = {out}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
