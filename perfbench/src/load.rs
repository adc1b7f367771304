//! Closed-loop load: one thread per connection, each sending its own
//! request list in order (wrapping around) and waiting for every reply.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use kert_bn::obs::TraceTree;
use kert_bn::serving::frame::{read_frame, write_frame};
use kert_bn::serving::protocol::encode;
use kert_bn::serving::{Client, Request, Response};
use serde::Deserialize;

/// What one connection saw.
pub struct Conn {
    /// Per request: index into the connection's list, and the round trip.
    pub rtt: Vec<(usize, Duration)>,
    /// Answers in send order (kept only when asked for).
    pub answers: Vec<Response>,
    /// Trace id sent with each request (traced passes only).
    pub trace_ids: Vec<u64>,
    /// Requests the daemon answered with a typed `Error`.
    pub failed: u64,
    /// Position in the list the connection's next request comes from.
    pub next: usize,
}

pub struct Pass {
    pub conns: Vec<Conn>,
    pub wall: Duration,
    /// Span trees fetched from the flight recorder, by trace id.
    pub trees: BTreeMap<u64, TraceTree>,
}

impl Pass {
    pub fn completed(&self) -> u64 {
        self.conns.iter().map(|c| c.rtt.len() as u64).sum()
    }

    pub fn failed(&self) -> u64 {
        self.conns.iter().map(|c| c.failed).sum()
    }

    /// Where each connection's next pass should continue its list.
    pub fn next(&self) -> Vec<usize> {
        self.conns.iter().map(|c| c.next).collect()
    }

    /// Round trips in ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.conns
            .iter()
            .flat_map(|c| c.rtt.iter().map(|(_, rtt)| rtt.as_secs_f64() * 1e3))
            .collect()
    }
}

/// How often a traced pass drains the flight recorder. Each fetch asks
/// for twice the trees completed since the last one, so none is missed
/// while the answers stay small.
const TRACE_FETCH_EVERY: Duration = Duration::from_millis(250);

/// The newest `limit` span trees, read with [`crate::json::parse`].
fn fetch_traces(stream: &mut TcpStream, limit: usize) -> io::Result<Vec<TraceTree>> {
    let req = encode(&Request::Trace { limit }).map_err(io::Error::other)?;
    write_frame(stream, &req)?;
    let bytes = read_frame(stream)?
        .ok_or_else(|| io::Error::other("daemon closed the trace connection"))?;
    let value = crate::json::parse(&bytes).map_err(io::Error::other)?;
    match Response::de(&value).map_err(io::Error::other)? {
        Response::Traces { traces } => Ok(traces),
        other => Err(io::Error::other(format!("Trace answered {other:?}"))),
    }
}

/// Drive `mixes.len()` connections for `dur`, connection `t` starting at
/// position `start[t]` of its list. With `traced`, every request carries a
/// trace id unique to its connection and position, and a collector
/// connection keeps fetching the newest span trees.
pub fn run(
    addr: SocketAddr,
    mixes: &[Vec<Request>],
    start_at: &[usize],
    dur: Duration,
    keep: bool,
    traced: bool,
) -> io::Result<Pass> {
    let done = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + dur;
    let (conns, trees, wall) = std::thread::scope(|s| {
        let workers: Vec<_> = mixes
            .iter()
            .enumerate()
            .map(|(t, mix)| {
                let completed = &completed;
                let first = start_at[t];
                s.spawn(move || -> io::Result<Conn> {
                    let mut client = Client::connect(addr)?;
                    let mut conn = Conn {
                        rtt: Vec::new(),
                        answers: Vec::new(),
                        trace_ids: Vec::new(),
                        failed: 0,
                        next: first,
                    };
                    let mut i = first;
                    while Instant::now() < deadline {
                        let req = &mix[i % mix.len()];
                        let t0 = Instant::now();
                        let resp = if traced {
                            let id = ((t as u64 + 1) << 40) | (i as u64 + 1);
                            let (resp, echoed) = client.request_traced(req, id)?;
                            if echoed != Some(id) {
                                return Err(io::Error::other("reply did not echo its trace id"));
                            }
                            conn.trace_ids.push(id);
                            resp
                        } else {
                            client.request(req)?
                        };
                        conn.rtt.push((i % mix.len(), t0.elapsed()));
                        completed.fetch_add(1, Ordering::Relaxed);
                        if matches!(resp, Response::Error(_)) {
                            conn.failed += 1;
                        }
                        if keep {
                            conn.answers.push(resp);
                        }
                        i += 1;
                    }
                    conn.next = i;
                    Ok(conn)
                })
            })
            .collect();
        let collector = traced.then(|| {
            s.spawn(|| -> io::Result<BTreeMap<u64, TraceTree>> {
                let mut stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                let mut trees = BTreeMap::new();
                let mut seen = 0;
                loop {
                    let last = done.load(Ordering::SeqCst);
                    let now = completed.load(Ordering::Relaxed);
                    let limit = (2 * (now - seen) as usize).max(64);
                    seen = now;
                    for t in fetch_traces(&mut stream, limit)? {
                        trees.insert(t.trace_id, t);
                    }
                    if last {
                        return Ok(trees);
                    }
                    std::thread::sleep(TRACE_FETCH_EVERY);
                }
            })
        });
        let conns: io::Result<Vec<Conn>> = workers
            .into_iter()
            .map(|w| w.join().expect("load thread panicked"))
            .collect();
        let wall = start.elapsed();
        done.store(true, Ordering::SeqCst);
        let trees = match collector {
            Some(c) => c.join().expect("trace collector panicked"),
            None => Ok(BTreeMap::new()),
        };
        (conns, trees, wall)
    });
    Ok(Pass {
        conns: conns?,
        wall,
        trees: trees?,
    })
}
