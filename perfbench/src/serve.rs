//! Loopback client for the in-process `parsec_serve::Server`: an open
//! loop paced by one generator, a closed loop, and the PING/STATS verbs.

use crate::inputs::{Expect, Request};
use parsec_serve::split_response;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// How long a client waits for one reply before counting it missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// How late the open-loop generator may finish its schedule.
const MAX_END_LAG: Duration = Duration::from_millis(250);

/// One connection, past the protocol greeting.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let mut conn = Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        };
        let greeting = conn.read_line()?;
        if greeting != parsec_serve::PROTOCOL_VERSION {
            return Err(std::io::Error::other(format!(
                "unexpected greeting `{greeting}`"
            )));
        }
        Ok(conn)
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("connection closed"));
        }
        Ok(line.trim_end().to_string())
    }

    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        self.send(&format!("{line}\n"))?;
        self.read_line()
    }
}

/// A request line on the wire.
pub fn wire_line(req: &Request) -> String {
    if req.interactive {
        format!("PARSE class=interactive -- {}\n", req.text)
    } else {
        format!("PARSE -- {}\n", req.text)
    }
}

/// One answered request.
#[derive(Clone, Copy)]
pub struct Sample {
    /// When the request was due (open loop) or sent (closed loop).
    pub start: Instant,
    pub latency: Duration,
    /// Server-side service time; `None` for cache hits.
    pub wall_us: Option<u64>,
    pub interactive: bool,
}

/// Everything one load phase observed.
#[derive(Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// Answers that were not a correct `OK`: SHED, TIMEOUT, ERR, FAULT,
    /// missing, or an oracle mismatch.
    pub failed: u64,
    pub elapsed: Duration,
    /// How late the generator sent each request (open loop only).
    pub gen_lag: Vec<Duration>,
    /// Whether the open-loop generator finished its schedule on time.
    pub on_schedule: bool,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Check one reply against the oracle; `Some(wall_us)` (None when cached)
/// for a correct answer.
fn check(reply: &str, expect: &Expect) -> Option<Option<u64>> {
    let (status, fields) = split_response(reply).ok()?;
    let field = |k: &str| {
        fields
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
    };
    let ok = status == "OK"
        && field("accepted") == Some(if expect.accepted { "true" } else { "false" })
        && field("ambiguous") == Some(if expect.ambiguous { "true" } else { "false" })
        && field("parses").and_then(|p| p.parse::<usize>().ok()) == Some(expect.parses);
    if !ok {
        eprintln!("perfbench: oracle mismatch: `{reply}` (expected {expect:?})");
        return None;
    }
    let cached = field("cached") == Some("true");
    let wall = field("wall_us").and_then(|w| w.parse::<u64>().ok());
    Some(if cached { None } else { wall })
}

/// Read replies for the requests the generator announces on `rx`, in
/// order, until the generator hangs up.
fn drain_replies(
    mut conn: Conn,
    rx: mpsc::Receiver<(usize, Instant)>,
    requests: &[Request],
    expects: &[Expect],
) -> Phase {
    let mut phase = Phase::default();
    let mut broken = false;
    for (i, due) in rx {
        phase.attempted += 1;
        if broken {
            phase.failed += 1;
            continue;
        }
        match conn.read_line() {
            Ok(reply) => {
                let req = &requests[i];
                match check(&reply, &expects[req.expect]) {
                    Some(wall_us) => phase.samples.push(Sample {
                        start: due,
                        latency: due.elapsed(),
                        wall_us,
                        interactive: req.interactive,
                    }),
                    None => phase.failed += 1,
                }
            }
            Err(e) => {
                eprintln!("perfbench: reply missing: {e}");
                broken = true;
                phase.failed += 1;
            }
        }
    }
    phase
}

/// Open loop: one generator sends request `i` at `start + i/rate`,
/// alternating over `conns` pipelined connections, for `duration`.
/// Latency runs from each request's due time; `gen_lag` is how late the
/// generator actually sent it.
pub fn open_loop(
    addr: SocketAddr,
    requests: Arc<Vec<Request>>,
    expects: Arc<Vec<Expect>>,
    first: usize,
    rate: f64,
    duration: Duration,
    conns: usize,
) -> std::io::Result<Phase> {
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..conns {
        let conn = Conn::open(addr)?;
        let writer = conn.writer.try_clone()?;
        let (tx, rx) = mpsc::channel::<(usize, Instant)>();
        let (reqs, exps) = (Arc::clone(&requests), Arc::clone(&expects));
        readers.push(thread::spawn(move || drain_replies(conn, rx, &reqs, &exps)));
        writers.push((writer, tx));
    }
    let period = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(2);
    let total = (duration.as_secs_f64() * rate) as usize;
    let mut gen_lag = Vec::with_capacity(total);
    for k in 0..total {
        let due = start + period * k as u32;
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        let i = (first + k) % requests.len();
        let (writer, tx) = &mut writers[k % conns];
        let _ = tx.send((i, due));
        gen_lag.push(Instant::now().saturating_duration_since(due));
        // A failed write surfaces as a missing reply on the reader side.
        let _ = writer.write_all(wire_line(&requests[i]).as_bytes());
    }
    let scheduled_end = start + period * total as u32;
    let on_schedule = Instant::now().saturating_duration_since(scheduled_end) < MAX_END_LAG;
    drop(writers);
    let mut phase = Phase {
        gen_lag,
        on_schedule,
        ..Phase::default()
    };
    for r in readers {
        phase.absorb(r.join().expect("reply reader panicked"));
    }
    phase.elapsed = start.elapsed();
    Ok(phase)
}

/// Closed loop: `conns` clients, each sending its next request only after
/// the previous reply, for `duration`.
pub fn closed_loop(
    addr: SocketAddr,
    requests: Arc<Vec<Request>>,
    expects: Arc<Vec<Expect>>,
    first: usize,
    duration: Duration,
    conns: usize,
) -> std::io::Result<Phase> {
    let next = Arc::new(AtomicUsize::new(first));
    let start = Instant::now();
    let deadline = start + duration;
    let mut clients = Vec::new();
    for _ in 0..conns {
        let mut conn = Conn::open(addr)?;
        let (reqs, exps, next) = (
            Arc::clone(&requests),
            Arc::clone(&expects),
            Arc::clone(&next),
        );
        clients.push(thread::spawn(move || {
            let mut phase = Phase::default();
            let mut last = Instant::now();
            while Instant::now() < deadline {
                let req = &reqs[next.fetch_add(1, Ordering::Relaxed) % reqs.len()];
                phase.attempted += 1;
                let sent = Instant::now();
                let reply = conn.send(&wire_line(req)).and_then(|_| conn.read_line());
                last = Instant::now();
                match reply.ok().and_then(|r| check(&r, &exps[req.expect])) {
                    Some(wall_us) => phase.samples.push(Sample {
                        start: sent,
                        latency: last - sent,
                        wall_us,
                        interactive: req.interactive,
                    }),
                    None => phase.failed += 1,
                }
            }
            (phase, last)
        }));
    }
    let mut phase = Phase {
        on_schedule: true,
        ..Phase::default()
    };
    let mut end = start;
    for c in clients {
        let (p, last) = c.join().expect("closed-loop client panicked");
        end = end.max(last);
        phase.absorb(p);
    }
    phase.elapsed = end - start;
    Ok(phase)
}

/// Round-trip times of `n` PINGs on one connection.
pub fn ping_rtts(addr: SocketAddr, n: usize) -> std::io::Result<Vec<Duration>> {
    let mut conn = Conn::open(addr)?;
    (0..n)
        .map(|_| {
            let t = Instant::now();
            let reply = conn.roundtrip("PING")?;
            if reply != "PONG" {
                return Err(std::io::Error::other(format!("PING answered `{reply}`")));
            }
            Ok(t.elapsed())
        })
        .collect()
}

/// The server's `STATS` fields.
pub fn stats(addr: SocketAddr) -> std::io::Result<Vec<(String, String)>> {
    let reply = Conn::open(addr)?.roundtrip("STATS")?;
    let (status, fields) = split_response(&reply).map_err(std::io::Error::other)?;
    if status != "STATS" {
        return Err(std::io::Error::other(format!("STATS answered `{reply}`")));
    }
    Ok(fields)
}
