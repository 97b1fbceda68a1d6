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

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io::{self, BufRead};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};

use spb_core::{QueryPlan, QueryShape, SpbConfig, SpbTree};
use spb_metric::{EditDistance, FloatVec, LpNorm, MetricObject, Word};
use spb_server::{
    Answers, Client, ClientError, Deadline, ErrorCode, IndexService, Response, ServerConfig,
    ServiceError, TreeService, WireStats,
};

pub use spb_server::{schema_path, Schema};

/// Exit code for argument/usage errors.
pub const EXIT_USAGE: i32 = 2;
/// Exit code when the remote server cannot be reached.
pub(crate) const EXIT_CONNECT: i32 = 10;
/// Exit code when the server shed the request (admission queue full).
pub(crate) const EXIT_OVERLOADED: i32 = 11;
/// Exit code when the request's deadline expired before completion.
pub(crate) const EXIT_DEADLINE: i32 = 12;
/// Exit code for a wire-protocol version mismatch.
pub(crate) const EXIT_VERSION: i32 = 13;

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
pub(crate) fn parse_accel(s: &str) -> Result<spb_core::AccelPolicy, String> {
    match s {
        "off" => Ok(spb_core::AccelPolicy::Off),
        "learned" => Ok(spb_core::AccelPolicy::Learned),
        other => Err(format!(
            "unknown accel policy {other:?} (expected off|learned)"
        )),
    }
}

/// Parses the `--curve` flag: `hilbert` / `z`.
pub(crate) fn parse_curve(s: &str) -> Result<spb_sfc::CurveKind, String> {
    match s {
        "hilbert" => Ok(spb_sfc::CurveKind::Hilbert),
        "z" => Ok(spb_sfc::CurveKind::Z),
        other => Err(format!("unknown curve {other:?} (expected hilbert|z)")),
    }
}

/// Where a query or update runs; the shared commands take either.
#[derive(Clone, Debug, PartialEq)]
pub enum Target {
    /// A local index directory (`--index DIR`).
    Index(PathBuf),
    /// A running `spb-cli serve` (`--addr HOST:PORT`).
    Addr(String),
}

/// The query objects of a [`Command::Query`], in the schema's text form.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryInput {
    /// `--query Q` (`range`, `knn`): the hits are printed.
    One(String),
    /// `--queries FILE` (`batch`), one query per line: per-query costs
    /// and aggregate throughput are printed.
    File(PathBuf),
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
    /// `range`, `knn` and `batch`: one plan over one or many query
    /// objects, answered by a local index or a server.
    Query {
        /// Where to run it.
        target: Target,
        /// `--radius R`, or `--k K [--alpha A] [--approx]` (see
        /// [`knn_plan`]; an approximate plan travels as the approximate
        /// wire op).
        plan: QueryPlan,
        /// The query object(s).
        input: QueryInput,
        /// Worker threads of a local target; a server uses its own.
        threads: usize,
        /// Relative deadline in ms (`0` = none).
        deadline_ms: u32,
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
    /// `knn --approx` / `knn --recall-target T` on a local index: the
    /// approximate answer with its recall measured against the exact one.
    KnnMeasured {
        /// Index directory.
        index: PathBuf,
        /// Query object in the schema's line format.
        query: String,
        /// `--k K [--alpha A]` (see [`knn_plan`]).
        plan: QueryPlan,
        /// Auto-tune `alpha` to the smallest ladder value meeting this
        /// recall target instead of using the plan's.
        recall_target: Option<f64>,
    },
    /// Insert one object.
    Insert {
        /// Where to run it.
        target: Target,
        /// Object in the schema's text form.
        object: String,
        /// Relative deadline in ms (`0` = none).
        deadline_ms: u32,
    },
    /// Delete one object.
    Delete {
        /// Where to run it.
        target: Target,
        /// Object in the schema's text form.
        object: String,
        /// Relative deadline in ms (`0` = none).
        deadline_ms: u32,
    },
    /// Index statistics; for a server also its admission counters and
    /// full observability snapshot (every counter, gauge and latency
    /// histogram, plus recent trace events).
    Stats {
        /// Where to read them.
        target: Target,
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
        /// Requests allowed to wait before arrivals are shed.
        max_queue: usize,
        /// Concurrent TCP connections before new ones are refused.
        max_connections: usize,
        /// Worker threads for batch queries.
        threads: usize,
        /// Keep a bounded in-memory ring of span trace events
        /// (`--trace on`); dumped through `stats --addr`.
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
    /// Protocol handshake with a server: version, schema, object count.
    Ping {
        /// Server address.
        addr: String,
    },
    /// Ask a server to drain in-flight work, checkpoint and exit.
    Shutdown {
        /// Server address.
        addr: String,
    },
}

/// The `--key value` pairs of a command line. Every lookup records its
/// key, so a flag the chosen command never read can be refused.
#[derive(Default)]
struct Flags {
    given: BTreeMap<String, String>,
    read: RefCell<BTreeSet<String>>,
}

impl Flags {
    /// The value of `--key`, recording the lookup.
    fn get(&self, key: &str) -> Option<&String> {
        self.read.borrow_mut().insert(key.to_owned());
        self.given.get(key)
    }

    fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// A flag given that no lookup asked for.
    fn unread(&self) -> Option<&String> {
        let read = self.read.borrow();
        self.given.keys().find(|k| !read.contains(*k))
    }
}

/// The value of `--key` parsed as a `T` (`kind` names `T` in the error).
fn parsed<T: std::str::FromStr>(flags: &Flags, key: &str, kind: &str) -> Result<Option<T>, String> {
    flags
        .get(key)
        .map(|v| v.parse())
        .transpose()
        .map_err(|_| format!("--{key} must be {kind}"))
}

/// Parses an argument vector (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    // `remote <command> --addr …` is the older spelling of
    // `<command> --addr …`.
    let args = match args {
        [first, rest @ ..] if first == "remote" => rest,
        all => all,
    };
    let (cmd, rest) = args.split_first().ok_or_else(usage)?;
    let mut flags = Flags::default();
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {:?}", rest[i]))?;
        // `--approx` is a bare switch: it takes no value.
        if key == "approx" {
            flags.given.insert(key.to_owned(), "true".to_owned());
            i += 1;
            continue;
        }
        let value = rest
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        flags.given.insert(key.to_owned(), value.clone());
        i += 2;
    }
    let need = |k: &str| -> Result<String, String> {
        flags
            .get(k)
            .cloned()
            .ok_or_else(|| format!("missing required --{k}"))
    };
    let opt = |k: &str, default: &str| flags.get(k).cloned().unwrap_or_else(|| default.to_owned());
    let count = |k: &str, default: usize| -> Result<usize, String> {
        Ok(parsed(&flags, k, "an integer")?.unwrap_or(default))
    };
    let target = || -> Result<Target, String> {
        match (flags.get("index"), flags.get("addr")) {
            (Some(dir), None) => Ok(Target::Index(PathBuf::from(dir))),
            (None, Some(addr)) => Ok(Target::Addr(addr.clone())),
            _ => Err(format!(
                "{cmd} needs exactly one of --index DIR or --addr HOST:PORT"
            )),
        }
    };
    // What has no wire form runs on a local index only.
    let index_only = |what: &str| -> Result<PathBuf, String> {
        match flags.get("addr") {
            Some(_) => Err(format!(
                "{what} has no wire form: it needs --index DIR, not --addr"
            )),
            None => need("index").map(PathBuf::from),
        }
    };
    let deadline_ms =
        || -> Result<u32, String> { Ok(parsed(&flags, "deadline-ms", "an integer")?.unwrap_or(0)) };
    let query = |plan: QueryPlan, input: QueryInput, threads: usize| -> Result<Command, String> {
        Ok(Command::Query {
            target: target()?,
            plan,
            input,
            threads,
            deadline_ms: deadline_ms()?,
        })
    };
    let radius = || parsed::<f64>(&flags, "radius", "a number");
    let need_radius = || radius()?.ok_or_else(|| "missing required --radius".to_owned());

    let command = match cmd.as_str() {
        "build" => Ok(Command::Build {
            input: PathBuf::from(need("input")?),
            index: PathBuf::from(need("index")?),
            schema_flag: opt("schema", "words"),
            pivots: count("pivots", 5)?,
            curve: opt("curve", "hilbert"),
            accel: opt("accel", "off"),
        }),
        "range" => {
            let plan = QueryPlan::exact(QueryShape::Range {
                radius: need_radius()?,
            });
            query(plan, QueryInput::One(need("query")?), 1)
        }
        "count" => Ok(Command::Count {
            index: index_only("count")?,
            query: need("query")?,
            radius: need_radius()?,
        }),
        "knn" => {
            let recall_target = parsed(&flags, "recall-target", "a number")?;
            // Recall is measured against the exact answer, which only a
            // local tree can produce beside the approximate one.
            if recall_target.is_some()
                || (flags.contains_key("approx") && !flags.contains_key("addr"))
            {
                Ok(Command::KnnMeasured {
                    index: index_only("knn --recall-target")?,
                    query: need("query")?,
                    plan: knn_plan(&flags)?,
                    recall_target,
                })
            } else {
                query(knn_plan(&flags)?, QueryInput::One(need("query")?), 1)
            }
        }
        "batch" => {
            let shape = match (radius()?, parsed::<u32>(&flags, "k", "an integer")?) {
                (Some(radius), None) => QueryShape::Range { radius },
                (None, Some(k)) => QueryShape::Knn { k: k as usize },
                _ => return Err("batch needs exactly one of --radius or --k".to_owned()),
            };
            let queries = QueryInput::File(PathBuf::from(need("queries")?));
            query(QueryPlan::exact(shape), queries, count("threads", 1)?)
        }
        "insert" => Ok(Command::Insert {
            target: target()?,
            object: need("object")?,
            deadline_ms: deadline_ms()?,
        }),
        "delete" => Ok(Command::Delete {
            target: target()?,
            object: need("object")?,
            deadline_ms: deadline_ms()?,
        }),
        // `obs-stats` is the older name of the server half of `stats`.
        "stats" | "obs-stats" => Ok(Command::Stats { target: target()? }),
        "verify" => Ok(Command::Verify {
            index: PathBuf::from(need("index")?),
        }),
        "recover" => Ok(Command::Recover {
            index: PathBuf::from(need("index")?),
        }),
        "serve" => Ok(Command::Serve {
            index: PathBuf::from(need("index")?),
            addr: opt("addr", "127.0.0.1:7878"),
            max_queue: count("max-queue", 64)?,
            max_connections: count("max-connections", 64)?,
            threads: count("threads", 4)?,
            trace: match opt("trace", "off").as_str() {
                "on" | "true" | "1" => true,
                "off" | "false" | "0" => false,
                other => return Err(format!("--trace must be on|off, got {other:?}")),
            },
        }),
        "cluster" => Ok(Command::Cluster {
            input: PathBuf::from(need("input")?),
            shards: count("shards", 2)?,
            replicas: count("replicas", 0)?,
            dir: flags.get("dir").map(PathBuf::from),
        }),
        "ping" => Ok(Command::Ping {
            addr: need("addr")?,
        }),
        "shutdown" => Ok(Command::Shutdown {
            addr: need("addr")?,
        }),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }?;
    // A typo'd or misplaced flag must not silently change the command.
    match flags.unread() {
        Some(key) => Err(format!("{cmd} does not take --{key}")),
        None => Ok(command),
    }
}

/// The kNN plan of `--k K [--alpha A] [--approx]`, the same for every
/// target: `K` defaults to 10, an `--alpha` makes the query
/// α-approximate, and a bare `--approx` asks for the approximate mode at
/// `α = 1`. An `A` the plan rejects (below 1, NaN, infinite) is a usage
/// error.
fn knn_plan(flags: &Flags) -> Result<QueryPlan, String> {
    let k: u32 = parsed(flags, "k", "an integer")?.unwrap_or(10);
    let alpha = parsed::<f64>(flags, "alpha", "a number")?;
    let approx = alpha.or(flags.contains_key("approx").then_some(1.0));
    QueryPlan::new(QueryShape::Knn { k: k as usize }, approx).map_err(|e| format!("--alpha: {e}"))
}

/// The usage banner.
pub fn usage() -> String {
    "usage: spb-cli <command> [--flag value ...]\n\
     \x20 build --input FILE --index DIR [--schema words|vectors:l2|vectors:l5] [--pivots N] [--curve hilbert|z] [--accel off|learned]\n\
     \x20 range (--index DIR | --addr HOST:PORT) --query Q --radius R [--deadline-ms MS]\n\
     \x20 knn   (--index DIR | --addr HOST:PORT) --query Q [--k K] [--alpha A] [--approx] [--recall-target T] [--deadline-ms MS]\n\
     \x20       (--recall-target, and the recall that --approx reports, need --index)\n\
     \x20 batch (--index DIR | --addr HOST:PORT) --queries FILE (--radius R | --k K) [--threads N] [--deadline-ms MS]\n\
     \x20 insert (--index DIR | --addr HOST:PORT) --object O [--deadline-ms MS]\n\
     \x20 delete (--index DIR | --addr HOST:PORT) --object O [--deadline-ms MS]\n\
     \x20 stats (--index DIR | --addr HOST:PORT)\n\
     \x20 count --index DIR --query Q --radius R\n\
     \x20 verify --index DIR\n\
     \x20 recover --index DIR\n\
     \x20 serve --index DIR [--addr HOST:PORT] [--max-queue N] [--max-connections N] [--threads N] [--trace on|off]\n\
     \x20 cluster --input FILE [--shards N] [--replicas R] [--dir DIR]\n\
     \x20 ping --addr HOST:PORT\n\
     \x20 shutdown --addr HOST:PORT\n\
     a leading `remote` (`remote range --addr ...`) is accepted and ignored"
        .to_owned()
}

/// Loads a words file (one word per line, blank lines skipped).
pub(crate) fn load_words(reader: impl BufRead) -> io::Result<Vec<Word>> {
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
pub(crate) fn load_vectors(reader: impl BufRead) -> io::Result<(Vec<FloatVec>, usize)> {
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

/// An opened [`Target`]: the type-erased service a server would run on,
/// or a connection to a server plus the schema from its handshake (so
/// query text can be encoded without any local index directory). Either
/// answers a plan with [`Answers`].
enum Session {
    Local {
        service: Box<dyn IndexService>,
        threads: usize,
    },
    Remote {
        client: Client,
        schema: Schema,
    },
}

/// A local failure with the exit code its remote twin gets.
fn service_error(e: ServiceError) -> CliError {
    let code = match e {
        ServiceError::DeadlineExceeded => EXIT_DEADLINE,
        ServiceError::Malformed(_) | ServiceError::Internal(_) => 1,
    };
    CliError {
        code,
        message: e.to_string(),
    }
}

impl Session {
    fn open(target: &Target, threads: usize) -> Result<Session, CliError> {
        let threads = threads.max(1);
        match target {
            Target::Index(dir) => {
                let service =
                    spb_server::open_index(dir, 32).map_err(|e| format!("open {dir:?}: {e}"))?;
                Ok(Session::Local { service, threads })
            }
            Target::Addr(addr) => {
                let mut client = Client::connect(addr.as_str()).map_err(client_error)?;
                let (_version, line, _len) = client.ping().map_err(client_error)?;
                let schema = Schema::from_line(line.trim())?;
                Ok(Session::Remote { client, schema })
            }
        }
    }

    fn schema(&self) -> &Schema {
        match self {
            Session::Local { service, .. } => service.schema(),
            Session::Remote { schema, .. } => schema,
        }
    }

    /// The one way a plan reaches a target.
    fn query(
        &mut self,
        plan: QueryPlan,
        objs: Vec<Vec<u8>>,
        deadline_ms: u32,
    ) -> Result<Answers, CliError> {
        match self {
            Session::Local { service, threads } => service
                .query(plan, &objs, *threads, Deadline::from_ms(deadline_ms))
                .map_err(service_error),
            Session::Remote { client, .. } => {
                client.query(plan, objs, deadline_ms).map_err(client_error)
            }
        }
    }

    /// Inserts `obj`, or deletes it and reports whether it existed. A
    /// local index is checkpointed afterwards, like a server's on
    /// shutdown, so the command leaves nothing to recover.
    fn modify(
        &mut self,
        obj: &[u8],
        delete: bool,
        deadline_ms: u32,
    ) -> Result<(Option<bool>, WireStats), CliError> {
        match self {
            Session::Local { service, .. } => {
                let done = if delete {
                    service
                        .delete(obj)
                        .map(|(found, stats)| (Some(found), stats))
                } else {
                    service.insert(obj).map(|stats| (None, stats))
                };
                let done = done.map_err(service_error)?;
                service
                    .checkpoint()
                    .map_err(|e| format!("checkpoint: {e}"))?;
                Ok(done)
            }
            Session::Remote { client, .. } if delete => client
                .delete(obj, deadline_ms)
                .map(|(found, stats)| (Some(found), stats))
                .map_err(client_error),
            Session::Remote { client, .. } => client
                .insert(obj, deadline_ms)
                .map(|stats| (None, stats))
                .map_err(client_error),
        }
    }
}

/// Executes a parsed command, writing human-readable output into `out`.
///
/// Failures carry the process exit code: connection-refused,
/// `Overloaded`, `DeadlineExceeded` (from either kind of target) and
/// protocol version mismatches map onto [`EXIT_CONNECT`],
/// [`EXIT_OVERLOADED`], [`EXIT_DEADLINE`] and [`EXIT_VERSION`];
/// everything else is 1.
pub fn run(cmd: &Command, out: &mut String) -> Result<(), CliError> {
    match cmd {
        Command::Build {
            input,
            index,
            schema_flag,
            pivots,
            curve,
            accel,
        } => {
            let cfg = SpbConfig {
                num_pivots: *pivots,
                curve: parse_curve(curve)?,
                accel: parse_accel(accel)?,
                ..SpbConfig::default()
            };
            let file = std::fs::File::open(input).map_err(|e| format!("open {input:?}: {e}"))?;
            let reader = io::BufReader::new(file);
            let (schema, tree_stats) = match schema_flag.as_str() {
                "words" => {
                    let words = load_words(reader).map_err(|e| e.to_string())?;
                    if words.is_empty() {
                        return Err("input file holds no words".to_owned().into());
                    }
                    let max_len = words.iter().map(Word::len).max().unwrap_or(1);
                    let tree = SpbTree::build(index, &words, EditDistance::new(max_len), &cfg)
                        .map_err(|e| e.to_string())?;
                    let stats = (tree.build_stats(), tree.storage_bytes());
                    (Schema::Words { max_len }, stats)
                }
                "vectors:l2" | "vectors:l5" => {
                    let (vecs, dim) = load_vectors(reader).map_err(|e| e.to_string())?;
                    if vecs.is_empty() {
                        return Err("input file holds no vectors".to_owned().into());
                    }
                    let p: u32 = if schema_flag.ends_with("l2") { 2 } else { 5 };
                    let tree = SpbTree::build(index, &vecs, LpNorm::new(p as f64, dim, 1.0), &cfg)
                        .map_err(|e| e.to_string())?;
                    let stats = (tree.build_stats(), tree.storage_bytes());
                    (Schema::Vectors { p, dim }, stats)
                }
                other => {
                    return Err(format!(
                        "unknown schema {other:?} (expected words|vectors:l2|vectors:l5)"
                    )
                    .into())
                }
            };
            std::fs::write(schema_path(index), schema.to_line()).map_err(|e| e.to_string())?;
            let (b, storage) = tree_stats;
            let _ = writeln!(
                out,
                "built: {} objects, {} distance computations, {} page accesses, {:.1} KB, {:.2}s",
                b.num_objects,
                b.compdists,
                b.page_accesses,
                storage as f64 / 1024.0,
                b.duration.as_secs_f64()
            );
            Ok(())
        }
        Command::Query {
            target,
            plan,
            input,
            threads,
            deadline_ms,
        } => {
            let texts: Vec<String> = match input {
                QueryInput::One(query) => vec![query.clone()],
                QueryInput::File(path) => std::fs::read_to_string(path)
                    .map_err(|e| format!("open {path:?}: {e}"))?
                    .lines()
                    .map(str::trim)
                    .filter(|l| !l.is_empty())
                    .map(str::to_owned)
                    .collect(),
            };
            let mut session = Session::open(target, *threads)?;
            let objs = texts
                .iter()
                .map(|t| session.schema().encode_text(t))
                .collect::<Result<Vec<Vec<u8>>, String>>()?;
            let start = spb_obs::clock::now();
            let answers = session.query(*plan, objs, *deadline_ms)?;
            let batch = matches!(input, QueryInput::File(_)).then(|| start.elapsed());
            Ok(report_answers(out, session.schema(), answers, batch)?)
        }
        Command::Insert {
            target,
            object,
            deadline_ms,
        }
        | Command::Delete {
            target,
            object,
            deadline_ms,
        } => {
            let mut session = Session::open(target, 1)?;
            let obj = session.schema().encode_text(object)?;
            let delete = matches!(cmd, Command::Delete { .. });
            let (found, stats) = session.modify(&obj, delete, *deadline_ms)?;
            let _ = writeln!(
                out,
                "{}; {} compdists, {} page accesses, {} fsync(s)",
                match found {
                    None => "inserted",
                    Some(true) => "deleted",
                    Some(false) => "not found",
                },
                stats.compdists,
                stats.page_accesses,
                stats.fsyncs
            );
            Ok(())
        }
        Command::Count { index, .. }
        | Command::KnnMeasured { index, .. }
        | Command::Stats {
            target: Target::Index(index),
        } => {
            let schema = spb_server::read_schema(index).map_err(|e| e.to_string())?;
            let done = match &schema {
                Schema::Words { max_len } => {
                    let metric = EditDistance::new(*max_len);
                    let tree = SpbTree::open(index, metric, 32).map_err(|e| e.to_string())?;
                    run_typed(out, &tree, &schema, cmd)
                }
                Schema::Vectors { p, dim } => {
                    let metric = LpNorm::new(f64::from(*p), *dim, 1.0);
                    let tree = SpbTree::open(index, metric, 32).map_err(|e| e.to_string())?;
                    run_typed(out, &tree, &schema, cmd)
                }
            };
            Ok(done?)
        }
        Command::Stats {
            target: Target::Addr(addr),
        } => server_stats(out, addr),
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
                Err(format!("{} problem(s) found", report.problems.len()).into())
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
        Command::Serve {
            index,
            addr,
            max_queue,
            max_connections,
            threads,
            trace,
        } => {
            spb_obs::trace::set_enabled(*trace);
            let cfg = ServerConfig {
                max_connections: *max_connections,
                max_queue: *max_queue,
                worker_threads: *threads,
                ..ServerConfig::default()
            };
            serve_blocking(index, addr, cfg, |a| {
                eprintln!("spb-server listening on {a}");
            })?;
            let _ = writeln!(out, "server stopped");
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
                return Err("cluster needs at least two input words".to_owned().into());
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
            Ok(result?)
        }
        Command::Ping { addr } => {
            let mut client = Client::connect(addr.as_str()).map_err(client_error)?;
            let (version, schema, len) = client.ping().map_err(client_error)?;
            let _ = writeln!(out, "protocol v{version}; schema: {schema}; objects: {len}");
            Ok(())
        }
        Command::Shutdown { addr } => {
            let mut client = Client::connect(addr.as_str()).map_err(client_error)?;
            client.shutdown().map_err(client_error)?;
            let _ = writeln!(out, "shutdown requested");
            Ok(())
        }
    }
}

/// Opens `index` and serves it on `addr`, blocking until SIGINT/SIGTERM
/// or a remote shutdown request. `on_start` observes the bound address
/// (useful with `--addr 127.0.0.1:0`).
pub(crate) fn serve_blocking(
    index: &Path,
    addr: &str,
    cfg: ServerConfig,
    on_start: impl FnMut(SocketAddr),
) -> Result<(), CliError> {
    let service = spb_server::open_index(index, 32)
        .map_err(|e| CliError::from(format!("open {index:?}: {e}")))?;
    spb_server::serve_until_shutdown(service, addr, cfg, on_start)
        .map_err(|e| CliError::from(format!("serve on {addr}: {e}")))
}

/// The commands with no wire form, each over the typed tree they need:
/// the count-only traversal, recall measured against the exact answer
/// (and α tuned to it), and the pivot table's δ.
fn run_typed<O, D>(
    out: &mut String,
    tree: &SpbTree<O, D>,
    schema: &Schema,
    cmd: &Command,
) -> Result<(), String>
where
    O: spb_metric::MetricObject,
    D: spb_metric::Distance<O>,
{
    let object = |text: &str| -> Result<O, String> {
        O::try_decode(&schema.encode_text(text)?).ok_or_else(|| format!("cannot decode {text:?}"))
    };
    match cmd {
        Command::Count { query, radius, .. } => {
            let (count, stats) = tree
                .range_count(&object(query)?, *radius)
                .map_err(|e| e.to_string())?;
            let _ = writeln!(out, "{count}");
            report_query(out, count as usize, &stats);
        }
        Command::KnnMeasured {
            query,
            plan,
            recall_target,
            ..
        } => {
            let q = object(query)?;
            let QueryShape::Knn { k } = plan.shape() else {
                return Err("knn needs a kNN plan".to_owned());
            };
            let mut alpha = plan.factor();
            if let Some(target) = recall_target {
                let tuned = tree
                    .tune_knn_alpha(std::slice::from_ref(&q), k, *target)
                    .map_err(|e| e.to_string())?;
                let _ = writeln!(
                    out,
                    "# tuned alpha: {} (measured recall {:.3}, target {target})",
                    tuned.param, tuned.achieved
                );
                alpha = tuned.param;
            }
            let (nn, stats) = tree
                .knn_approx_measured(&q, k, alpha)
                .map_err(|e| e.to_string())?;
            let nn = nn.into_iter().map(|(id, o, d)| (id, d, o.encoded()));
            let row = (nn.collect(), WireStats::from(&stats));
            report_answers(out, schema, Answers::Knn(vec![row]), None)?;
            if let Some(recall) = stats.recall {
                let _ = writeln!(out, "# recall: {recall:.3}");
            }
        }
        Command::Stats { .. } => {
            let pivots = tree.table().num_pivots();
            describe(
                out,
                &schema.to_line(),
                tree.len(),
                tree.storage_bytes(),
                pivots,
            );
            let _ = writeln!(out, "delta:   {}", tree.table().delta());
        }
        other => return Err(format!("{other:?} does not need a typed tree")),
    }
    Ok(())
}

/// `stats --addr`: the index summary and admission counters, a digest of
/// the server's and the learned model's health, then the full
/// observability snapshot the digest was read from.
fn server_stats(out: &mut String, addr: &str) -> Result<(), CliError> {
    let mut client = Client::connect(addr).map_err(client_error)?;
    let Response::Stats {
        schema,
        len,
        storage_bytes,
        num_pivots,
        served,
        shed,
        deadline_miss,
    } = client.stats().map_err(client_error)?
    else {
        return Err("the server answered `stats` with another response"
            .to_owned()
            .into());
    };
    describe(out, &schema, len, storage_bytes, num_pivots as usize);
    let _ = writeln!(out, "served:  {served}");
    let _ = writeln!(out, "shed:    {shed}");
    let _ = writeln!(out, "deadline misses: {deadline_miss}");
    let snap = client.obs_stats().map_err(client_error)?;
    // Server health: live connections and how well the dispatcher is
    // coalescing work into batches.
    if let Some(v) = snap.gauge("open_connections") {
        let _ = writeln!(out, "open connections: {v}");
    }
    if let Some(h) = snap.hist("dispatch_batch_size") {
        let _ = writeln!(
            out,
            "dispatch batch size: p50 {} p90 {} max {} ({} batches)",
            h.p50, h.p90, h.max, h.count
        );
    }
    // Learned-positioning health: how often queries ride the model vs
    // fall back to classic descent, and the last measured recall.
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
    render_obs_snapshot(out, &snap);
    Ok(())
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
    let schema = Schema::Words { max_len };
    let cfg = spb_cluster::ClusterConfig {
        shards,
        replicas,
        ..spb_cluster::ClusterConfig::default()
    };
    let mut cluster =
        spb_cluster::Cluster::launch(&base.join("cluster"), words, metric, schema.clone(), &cfg)
            .map_err(|e| format!("cluster launch: {e}"))?;
    let _ = writeln!(
        out,
        "launched {} shard(s), {replicas} replica(s) each, over {} object(s)",
        cluster.num_shards(),
        words.len()
    );
    let single = SpbTree::build(&base.join("single"), words, metric, &SpbConfig::default())
        .map_err(|e| format!("single-node build: {e}"))?;
    let reference = TreeService::new(single, schema);

    // Probe with real members (hits guaranteed) plus their neighbourhood.
    let probes: Vec<Word> = words.iter().take(8).cloned().collect();
    let range = |radius| QueryPlan::exact(QueryShape::Range { radius });
    let knn = |k| QueryPlan::exact(QueryShape::Knn { k });
    let router = cluster.router();
    let plans = [range(1.0), range(2.0), knn(3), knn(10)];
    for q in &probes {
        for plan in plans {
            compare(&router, &reference, q, plan)?;
        }
    }
    let _ = writeln!(
        out,
        "cluster-identical: OK ({} checks across {} shard(s))",
        probes.len() * plans.len(),
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
            compare(&router, &reference, q, range(2.0))?;
            compare(&router, &reference, q, knn(3))?;
        }
        let _ = writeln!(
            out,
            "failover: OK (shard 0 primary killed; replicas answered identically)"
        );
    }
    cluster.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    Ok(())
}

/// Holds the router's answer to `plan` to the single node's: the same
/// rows once both are in the router's order (range hits ascending by id).
/// Costs are not compared — other trees answer for the router.
fn compare(
    router: &spb_cluster::Router<Word, EditDistance>,
    reference: &dyn IndexService,
    q: &Word,
    plan: QueryPlan,
) -> Result<(), String> {
    fn rows(answers: Answers) -> Answers {
        match answers {
            Answers::Range(rows) => Answers::Range(
                rows.into_iter()
                    .map(|(mut hits, _)| {
                        hits.sort_unstable_by_key(|&(id, _)| id);
                        (hits, WireStats::default())
                    })
                    .collect(),
            ),
            Answers::Knn(rows) => Answers::Knn(
                rows.into_iter()
                    .map(|(nn, _)| (nn, WireStats::default()))
                    .collect(),
            ),
        }
    }
    let got = router
        .query(plan, std::slice::from_ref(q))
        .map_err(|e| format!("router: {e}"))?;
    let want = reference
        .query(plan, &[q.encoded()], 1, Deadline::none())
        .map_err(|e| e.to_string())?;
    if rows(got) != rows(want) {
        return Err(format!(
            "cluster-identical: FAILED on {plan:?} for {:?}",
            q.as_str()
        ));
    }
    Ok(())
}

/// The one place [`Answers`] become output lines: `id\t[dist\t]object`
/// per hit and a cost summary for a query whose hits were asked for, or
/// — for a `batch`, which passes how long its queries took together —
/// one cost line per query and the aggregate throughput.
fn report_answers(
    out: &mut String,
    schema: &Schema,
    answers: Answers,
    batch: Option<std::time::Duration>,
) -> Result<(), String> {
    type Hit = (u32, Option<f64>, Vec<u8>);
    let rows: Vec<(Vec<Hit>, WireStats)> = match answers {
        Answers::Range(rows) => rows
            .into_iter()
            .map(|(hits, s)| (hits.into_iter().map(|(id, o)| (id, None, o)).collect(), s))
            .collect(),
        Answers::Knn(rows) => rows
            .into_iter()
            .map(|(nn, s)| {
                (
                    nn.into_iter().map(|(id, d, o)| (id, Some(d), o)).collect(),
                    s,
                )
            })
            .collect(),
    };
    for (i, (hits, stats)) in rows.iter().enumerate() {
        if batch.is_some() {
            let _ = writeln!(
                out,
                "query {i}: {} result(s); {} compdists, {} page accesses",
                hits.len(),
                stats.compdists,
                stats.page_accesses
            );
            continue;
        }
        for (id, dist, obj) in hits {
            let obj = schema.render(obj)?;
            let _ = match dist {
                Some(d) => writeln!(out, "{id}\t{d}\t{obj}"),
                None => writeln!(out, "{id}\t{obj}"),
            };
        }
        report_query(out, hits.len(), &stats.into());
    }
    if let Some(elapsed) = batch {
        let elapsed = elapsed.as_secs_f64();
        let _ = writeln!(
            out,
            "# {} queries: {elapsed:.3}s total, {:.1} queries/s",
            rows.len(),
            rows.len() as f64 / elapsed
        );
    }
    Ok(())
}

fn report_query(out: &mut String, results: usize, stats: &spb_core::QueryStats) {
    let _ = writeln!(
        out,
        "# {results} result(s); {} compdists, {} page accesses, {:.3} ms",
        stats.compdists,
        stats.page_accesses,
        stats.duration.as_secs_f64() * 1e3
    );
}

fn describe(out: &mut String, schema_line: &str, len: u64, storage: u64, pivots: usize) {
    let _ = writeln!(out, "schema: {schema_line}");
    let _ = writeln!(out, "objects: {len}");
    let _ = writeln!(out, "storage: {:.1} KB", storage as f64 / 1024.0);
    let _ = writeln!(out, "pivots:  {pivots}");
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

    fn range(radius: f64) -> QueryPlan {
        QueryPlan::exact(QueryShape::Range { radius })
    }

    /// `range` / `knn` on a local index.
    fn query_one(index: &Path, plan: QueryPlan, query: &str) -> Command {
        Command::Query {
            target: Target::Index(index.into()),
            plan,
            input: QueryInput::One(query.into()),
            threads: 1,
            deadline_ms: 0,
        }
    }

    /// Parses and runs one command line.
    fn cli(line: &str) -> Result<String, CliError> {
        let mut out = String::new();
        run(&parse_args(&args(line)).expect(line), &mut out).map(|()| out)
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
        assert_eq!(cmd, query_one(Path::new("./idx"), knn(10, None), "hello"));
        let cmd = parse_args(&args("range --index ./idx --query hello --radius 2")).unwrap();
        assert_eq!(cmd, query_one(Path::new("./idx"), range(2.0), "hello"));
        assert!(parse_args(&args("range --index ./idx --query hello")).is_err());
        assert!(parse_args(&args("range --query hello --radius 2")).is_err());
        assert!(parse_args(&args(
            "range --index ./idx --addr x:1 --query hello --radius 2"
        ))
        .is_err());
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
            Command::KnnMeasured {
                index: "./idx".into(),
                query: "hello".into(),
                plan: knn(10, Some(2.0)),
                recall_target: None,
            }
        );
        let cmd = parse_args(&args("knn --index ./idx --query hello --recall-target 0.9")).unwrap();
        assert_eq!(
            cmd,
            Command::KnnMeasured {
                index: "./idx".into(),
                query: "hello".into(),
                plan: knn(10, None),
                recall_target: Some(0.9),
            }
        );
        assert!(parse_args(&args(
            "knn --index ./idx --query hello --recall-target high"
        ))
        .is_err());
        // Every target shares one flag -> plan function: a bare
        // `--approx` is the approximate mode at alpha 1, an `--alpha`
        // needs no `--approx`, and an alpha the plan rejects is a usage
        // error everywhere (it used to panic the local command).
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
                    Command::Query { plan, .. } | Command::KnnMeasured { plan, .. } => plan,
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
            Command::Query {
                target: Target::Addr("127.0.0.1:7878".into()),
                plan: knn(10, Some(1.5)),
                input: QueryInput::One("hello".into()),
                threads: 1,
                deadline_ms: 0,
            }
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
        run(&query_one(&index, range(1.0), "carrot"), &mut out).unwrap();
        assert!(out.contains("carrot"));
        assert!(out.contains("carrots"));
        assert!(!out.contains("banana"));

        let mut out = String::new();
        run(&query_one(&index, knn(2, None), "parrots"), &mut out).unwrap();
        assert!(out.contains("parrot"));

        // `--recall-target` tunes alpha and reports measured recall.
        let mut out = String::new();
        run(
            &Command::KnnMeasured {
                index: index.clone(),
                query: "parrots".into(),
                plan: knn(2, None),
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
                target: Target::Index(index.clone()),
            },
            &mut out,
        )
        .unwrap();
        assert!(out.contains("objects: 5"));
        assert!(out.contains("delta:"), "out = {out}");

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
        run(&query_one(&accel_index, range(1.0), "carrot"), &mut out).unwrap();
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
            Command::Query {
                target: Target::Index("./idx".into()),
                plan: range(2.0),
                input: QueryInput::File("q.txt".into()),
                threads: 4,
                deadline_ms: 0,
            }
        );
        let cmd = parse_args(&args(
            "batch --addr x:1 --queries q.txt --k 3 --deadline-ms 50",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Query {
                target: Target::Addr("x:1".into()),
                plan: knn(3, None),
                input: QueryInput::File("q.txt".into()),
                threads: 1,
                deadline_ms: 50,
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
        let (index, qfile) = (index.display(), qfile.display());
        let out = cli(&format!(
            "batch --index {index} --queries {qfile} --radius 1 --threads 2"
        ))
        .unwrap();
        // carrot → {carrot, carrots, parrot} at edit distance ≤ 1.
        assert!(out.contains("query 0: 3 result(s)"), "out = {out}");
        assert!(out.contains("query 1: 1 result(s)"), "out = {out}");
        assert!(out.contains("# 2 queries: "), "out = {out}");

        let out = cli(&format!(
            "batch --index {index} --queries {qfile} --k 2 --threads 2"
        ))
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
        let err = run(&query_one(&index, range(0.1), "0.1"), &mut out).unwrap_err();
        assert!(err.message.contains("index expects 2"), "{err}");
        let mut out = String::new();
        let count = Command::Count {
            index: index.clone(),
            query: "0.1".into(),
            radius: 0.1,
        };
        let err = run(&count, &mut out).unwrap_err();
        assert!(err.message.contains("index expects 2"), "{err}");

        // A vector hit prints its object, like a word hit does.
        let mut out = String::new();
        run(&query_one(&index, range(0.05), "0.1,0.1"), &mut out).unwrap();
        assert!(out.contains("\t0.12,0.1\n"), "out = {out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_serve_and_remote() {
        let cmd = parse_args(&args(
            "serve --index ./idx --addr 127.0.0.1:9000 --max-queue 2",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                index: "./idx".into(),
                addr: "127.0.0.1:9000".into(),
                max_queue: 2,
                max_connections: 64,
                threads: 4,
                trace: false,
            }
        );
        let cmd = parse_args(&args("serve --index ./idx --trace on")).unwrap();
        assert!(matches!(cmd, Command::Serve { trace: true, .. }));
        assert!(parse_args(&args("serve --index ./idx --trace maybe")).is_err());
        // `remote` is a spelling the parser drops, nothing more.
        for line in [
            "stats --addr 127.0.0.1:9000",
            "obs-stats --addr 127.0.0.1:9000",
            "range --addr localhost:9000 --query carrot --radius 1 --deadline-ms 500",
            "knn --addr localhost:9000 --query carrot --k 3 --approx",
            "batch --addr localhost:9000 --queries q.txt --k 3",
            "insert --addr localhost:9000 --object carrot",
            "delete --addr localhost:9000 --object carrot --deadline-ms 9",
            "ping --addr localhost:9000",
            "shutdown --addr localhost:9000",
        ] {
            let plain = parse_args(&args(line)).expect(line);
            let prefixed = parse_args(&args(&format!("remote {line}"))).expect(line);
            assert_eq!(plain, prefixed, "{line}");
        }
        assert_eq!(
            parse_args(&args("remote stats --addr 127.0.0.1:9000")).unwrap(),
            Command::Stats {
                target: Target::Addr("127.0.0.1:9000".into()),
            }
        );
        assert_eq!(
            parse_args(&args(
                "remote range --addr localhost:9000 --query carrot --radius 1 --deadline-ms 500",
            ))
            .unwrap(),
            Command::Query {
                target: Target::Addr("localhost:9000".into()),
                plan: range(1.0),
                input: QueryInput::One("carrot".into()),
                threads: 1,
                deadline_ms: 500,
            }
        );
        // What has no wire form is a usage error on a server target.
        for line in [
            "count --addr x:1 --query q --radius 1",
            "remote count --addr x:1 --query q --radius 1",
            "knn --addr x:1 --query q --recall-target 0.9",
            "knn --addr x:1 --query q --approx --recall-target 0.9",
        ] {
            let err = parse_args(&args(line)).unwrap_err();
            assert!(err.contains("has no wire form"), "{line}: {err}");
        }
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
    fn flags_the_command_does_not_read_are_refused_by_name() {
        for (line, flag) in [
            (
                "knn --index idx --query carrot --k 2 --alpah 1.5",
                "--alpah",
            ),
            (
                "range --index idx --query carrot --radius 1 --deadline-msec 1",
                "--deadline-msec",
            ),
            ("serve --index idx --max-inflihgt 0", "--max-inflihgt"),
            ("serve --index idx --max-inflight 4", "--max-inflight"),
            // Known to another command is still unknown to this one.
            (
                "count --index idx --query q --radius 1 --deadline-ms 5",
                "--deadline-ms",
            ),
            ("remote ping --addr x:1 --index idx", "--index"),
        ] {
            let err = parse_args(&args(line)).unwrap_err();
            assert!(err.contains(flag), "{line}: {err}");
        }
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
        let err = run(&Command::Ping { addr }, &mut out).unwrap_err();
        server.join().unwrap();
        assert_eq!(err.code, EXIT_VERSION, "message: {}", err.message);
        assert!(err.message.contains('2'), "message: {}", err.message);
    }

    #[test]
    fn remote_connection_refused_maps_to_exit_10() {
        // Port 1 on localhost: nothing listens there.
        let mut out = String::new();
        let refused = Target::Addr("127.0.0.1:1".into());
        for cmd in [
            Command::Ping {
                addr: "127.0.0.1:1".into(),
            },
            Command::Stats {
                target: refused.clone(),
            },
            Command::Insert {
                target: refused,
                object: "carrot".into(),
                deadline_ms: 0,
            },
        ] {
            let err = run(&cmd, &mut out).unwrap_err();
            assert_eq!(err.code, EXIT_CONNECT, "message: {}", err.message);
        }
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

    /// Builds `rows` into `dir/name` under `schema_flag`.
    fn build_index(dir: &Path, name: &str, schema_flag: &str, rows: &str) -> PathBuf {
        let data = dir.join(format!("{name}.txt"));
        std::fs::write(&data, rows).unwrap();
        let index = dir.join(name);
        cli(&format!(
            "build --input {} --index {} --schema {schema_flag} --pivots 2",
            data.display(),
            index.display()
        ))
        .unwrap();
        index
    }

    /// Serves `index` on an OS-assigned port in a background thread and
    /// learns the address through the `on_start` hook.
    fn serve_in_background(
        index: &Path,
    ) -> (String, std::thread::JoinHandle<Result<(), CliError>>) {
        let (tx, rx) = std::sync::mpsc::channel();
        let index = index.to_path_buf();
        let server = std::thread::spawn(move || {
            serve_blocking(&index, "127.0.0.1:0", ServerConfig::default(), |a| {
                tx.send(a).unwrap();
            })
        });
        let addr = rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        (addr.to_string(), server)
    }

    #[test]
    fn serve_then_remote_roundtrip() {
        let dir = std::env::temp_dir().join(format!("spbcli-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let index = build_index(
            &dir,
            "idx",
            "words",
            "carrot\ncarrots\nparrot\nbanana\napple\n",
        );
        let (addr, server) = serve_in_background(&index);

        let out = cli(&format!("remote ping --addr {addr}")).unwrap();
        assert!(out.contains("objects: 5"), "out = {out}");

        let out = cli(&format!(
            "remote range --addr {addr} --query carrot --radius 1"
        ))
        .unwrap();
        assert!(out.contains("carrots"), "out = {out}");
        assert!(!out.contains("banana"), "out = {out}");

        let out = cli(&format!("remote insert --addr {addr} --object carrotz")).unwrap();
        assert!(out.contains("inserted"), "out = {out}");

        let qfile = dir.join("queries.txt");
        std::fs::write(&qfile, "carrot\nbanana\n").unwrap();
        let out = cli(&format!(
            "remote batch --addr {addr} --queries {} --radius 1",
            qfile.display()
        ))
        .unwrap();
        // carrot → {carrot, carrots, carrotz, parrot} at distance ≤ 1.
        assert!(out.contains("query 0: 4 result(s)"), "out = {out}");
        assert!(out.contains("query 1: 1 result(s)"), "out = {out}");

        // One `stats` for a server: the index summary, the admission
        // counters, and the observability snapshot that travelled the
        // wire — the batch above must show up in the served counter and
        // leave at least one traversal-phase latency sample.
        for spelling in ["stats", "remote stats", "remote obs-stats"] {
            let out = cli(&format!("{spelling} --addr {addr}")).unwrap();
            assert!(out.contains("schema: words 7"), "out = {out}");
            assert!(out.contains("objects: 6"), "out = {out}");
            assert!(out.contains("deadline misses: 0"), "out = {out}");
            assert!(out.contains("admission.served"), "out = {out}");
            assert!(out.contains("phase.traversal"), "out = {out}");
        }

        cli(&format!("remote shutdown --addr {addr}")).unwrap();
        server.join().unwrap().unwrap();

        // The shutdown drained and checkpointed: the index reopens clean.
        let out = cli(&format!("verify --index {}", index.display())).unwrap();
        assert!(out.contains("ok"), "out = {out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Output lines without their wall-clock fields (`… ms`, and the
    /// `…s total, … queries/s` of a batch).
    fn untimed(out: &str) -> Vec<String> {
        out.lines()
            .map(|l| {
                let cut = if l.ends_with(" ms") {
                    l.rfind(", ")
                } else if l.ends_with(" queries/s") {
                    l.rfind(": ")
                } else {
                    None
                };
                l[..cut.unwrap_or(l.len())].to_owned()
            })
            .collect()
    }

    /// Every shared command prints the same lines for `--index DIR` and
    /// for `--addr` of a server over the same data. The server gets its
    /// own copy of the directory: a live server and a local open must
    /// never share one `spb.wal`.
    #[test]
    fn index_and_addr_targets_print_the_same_lines() {
        let dir = std::env::temp_dir().join(format!("spbcli-targets-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut words = String::new();
        let mut vectors = String::new();
        for i in 0..120u32 {
            let _ = writeln!(
                words,
                "w{:02}{}",
                i % 37,
                "abcdefgh".split_at(i as usize % 8).0
            );
            let _ = writeln!(
                vectors,
                "{},{},{}",
                (i % 11) as f32 / 11.0,
                (i % 7) as f32 / 7.0,
                (i % 5) as f32 / 5.0
            );
        }
        // (schema, rows, a query, a batch file, radius, a new object)
        let cases = [
            (
                "words",
                words,
                "w05abc",
                "w05abc\nw11\nzzz\n",
                "2",
                "w05abcz",
            ),
            (
                "vectors:l2",
                vectors,
                "0.5,0.5,0.5",
                "0.5,0.5,0.5\n0,0,0\n",
                "0.3",
                "0.51,0.52,0.53",
            ),
        ];
        for (schema_flag, rows, query, batch, radius, object) in cases {
            let name = schema_flag.replace(':', "-");
            let local = build_index(&dir, &name, schema_flag, &rows);
            let served = dir.join(format!("{name}-served"));
            std::fs::create_dir_all(&served).unwrap();
            for file in std::fs::read_dir(&local).unwrap() {
                let file = file.unwrap();
                std::fs::copy(file.path(), served.join(file.file_name())).unwrap();
            }
            let qfile = dir.join(format!("{name}-queries.txt"));
            std::fs::write(&qfile, batch).unwrap();
            let (addr, server) = serve_in_background(&served);

            let (index, qfile) = (local.display(), qfile.display());
            let both = |command: &str| {
                let on_index = cli(&command.replace("TARGET", &format!("--index {index}")));
                let on_addr = cli(&command.replace("TARGET", &format!("--addr {addr}")));
                (on_index.expect(command), on_addr.expect(command))
            };
            for command in [
                format!("range TARGET --query {query} --radius {radius}"),
                format!("range TARGET --query {query} --radius {radius} --deadline-ms 60000"),
                format!("knn TARGET --query {query} --k 4"),
                format!("knn TARGET --query {query} --k 4 --alpha 1.5"),
                format!("batch TARGET --queries {qfile} --radius {radius} --threads 2"),
                format!("batch TARGET --queries {qfile} --k 3"),
                format!("insert TARGET --object {object}"),
                format!("delete TARGET --object {object}"),
                format!("delete TARGET --object {object}"),
            ] {
                let (on_index, on_addr) = both(&command);
                assert_eq!(
                    untimed(&on_index),
                    untimed(&on_addr),
                    "{schema_flag}: {command}"
                );
                let hits = on_index.lines().filter(|l| !l.starts_with('#')).count();
                assert!(
                    hits >= 1,
                    "{command} printed no hit or verdict:\n{on_index}"
                );
            }
            // After an update the two trees hold the same objects but are
            // no longer the same tree: the local one was reopened, the
            // served one still has its RAF tail page in memory, so page
            // accesses may differ by that page. The hits may not.
            let (on_index, on_addr) =
                both(&format!("range TARGET --query {query} --radius {radius}"));
            let hits = |out: &str| -> Vec<String> {
                let lines = out.lines().filter(|l| !l.starts_with('#'));
                lines.map(str::to_owned).collect()
            };
            assert_eq!(
                hits(&on_index),
                hits(&on_addr),
                "{schema_flag}: after updates"
            );

            cli(&format!("shutdown --addr {addr}")).unwrap();
            server.join().unwrap().unwrap();
            for checked in [&local, &served] {
                let out = cli(&format!("verify --index {}", checked.display())).unwrap();
                assert!(out.contains("ok"), "out = {out}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `--deadline-ms` is honoured on a local target too: the one query
    /// path takes a deadline whatever answers it.
    #[test]
    fn an_expired_deadline_on_a_local_index_exits_12() {
        let dir = std::env::temp_dir().join(format!("spbcli-deadline-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut words = String::new();
        for i in 0..400 {
            let _ = writeln!(words, "word{i:03}");
        }
        let index = build_index(&dir, "idx", "words", &words);
        let qfile = dir.join("queries.txt");
        std::fs::write(&qfile, words.repeat(8)).unwrap();
        let err = cli(&format!(
            "batch --index {} --queries {} --radius 3 --deadline-ms 1",
            index.display(),
            qfile.display()
        ))
        .unwrap_err();
        assert_eq!(err.code, EXIT_DEADLINE, "message: {}", err.message);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
