//! The closed-loop generator: a few keep-alive connections, one thread
//! each, every caller waiting for its reply before sending the next
//! request. Requests are handed out from a shared cursor, so a free
//! connection always takes the next request in plan order.

use crate::daemon::Conn;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What the inline judge decided about one response.
pub enum Judgement {
    Pass,
    Fail(String),
    /// Keep the body for a check after the phase.
    Keep,
}

/// One request's fate.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub index: usize,
    pub conn: usize,
    pub status: u16,
    /// Seconds from the phase start to the send.
    pub start_s: f64,
    pub latency_s: f64,
    pub body: Option<Vec<u8>>,
    pub failure: Option<String>,
}

/// Sends every request of `wires` over `conns` connections and returns
/// the outcomes in request order.
pub fn drive(
    addr: &str,
    wires: &[Vec<u8>],
    conns: usize,
    phase_start: Instant,
    judge: &(dyn Fn(usize, u16, &[u8]) -> Judgement + Sync),
) -> Vec<Outcome> {
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<Outcome>> = Mutex::new(Vec::with_capacity(wires.len()));
    std::thread::scope(|scope| {
        for conn_id in 0..conns.max(1) {
            let (cursor, results) = (&cursor, &results);
            scope.spawn(move || {
                let mut local = Vec::new();
                let mut conn = Conn::connect(addr).ok();
                loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(wire) = wires.get(index) else { break };
                    let start = Instant::now();
                    let reply = match conn.as_mut() {
                        Some(c) => c.send(wire),
                        None => Err(std::io::Error::other("not connected")),
                    };
                    let latency_s = start.elapsed().as_secs_f64();
                    let start_s = start.duration_since(phase_start).as_secs_f64();
                    let mut out = Outcome {
                        index,
                        conn: conn_id,
                        status: 0,
                        start_s,
                        latency_s,
                        body: None,
                        failure: None,
                    };
                    match reply {
                        Ok((status, body)) => {
                            out.status = status;
                            match judge(index, status, &body) {
                                Judgement::Pass => {}
                                Judgement::Fail(why) => out.failure = Some(why),
                                Judgement::Keep => out.body = Some(body),
                            }
                        }
                        Err(e) => {
                            out.failure = Some(format!("transport: {e}"));
                            conn = Conn::connect(addr).ok();
                        }
                    }
                    local.push(out);
                }
                results
                    .lock()
                    .expect("a generator thread panicked while holding the results")
                    .extend(local);
            });
        }
    });
    let mut all = results
        .into_inner()
        .expect("a generator thread panicked while holding the results");
    all.sort_by_key(|o| o.index);
    all
}
