//! Retry-with-backoff for HTTP clients of `gem5prof-served`.
//!
//! `loadgen`, `servectl`, the `soak` harness, the cluster router and the
//! node-side peer warm-tier fetch all talk to `gem5prof-served` through
//! [`ClientConn`]; this module gives them one shared policy for the
//! failure modes a well-behaved client must absorb instead of
//! amplifying:
//!
//! * **429 backpressure** — honor the server's `Retry-After` header
//!   (capped by the policy so a load generator cannot be parked
//!   indefinitely), count the retry, and resubmit.
//! * **503 during drain** — a draining daemon answers every request
//!   with 503 plus `Retry-After`; honor it exactly like a 429 so a
//!   client behind a router fails over to another node instead of
//!   hammering the draining one. A 503 *without* `Retry-After` (a
//!   permanent "no capacity" answer) is returned immediately — only the
//!   server's explicit "come back later" invites a retry.
//! * **Transport errors** — connect refusal, torn responses, dropped
//!   connections: reconnect after a jittered exponential backoff.
//!
//! Jitter is deterministic (seeded splitmix64 over the attempt index),
//! matching the repository-wide rule that test traffic must replay.
//!
//! This module lives in the server crate so the serving layer itself —
//! the cluster router and the engine's peer fetch — and the client
//! binaries in `bench` (`servectl`, `loadgen`, `soak`) share one policy.

use crate::http::ClientConn;
use gem5prof_chaos::splitmix64;
use std::io;
use std::time::Duration;

/// Backoff policy for one client.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries per request before giving up (0 disables retrying).
    pub max_retries: u32,
    /// Base backoff; attempt `n` waits `base * 2^n` ± jitter.
    pub base: Duration,
    /// Upper bound on any single wait, including `Retry-After`.
    pub cap: Duration,
    /// Seed for deterministic jitter.
    pub seed: u64,
    /// Connect/read/write timeout for each attempt.
    pub timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            seed: 0,
            timeout: Duration::from_secs(30),
        }
    }
}

impl RetryPolicy {
    /// The wait before retry `attempt` (1-based) of request `key`:
    /// exponential in the attempt, jittered to 50–150% so a fleet of
    /// backed-off clients does not retry in lockstep.
    pub fn backoff(&self, key: u64, attempt: u32) -> Duration {
        let exp = self.base.saturating_mul(1u32 << attempt.min(10));
        let jitter_word = splitmix64(self.seed ^ key.rotate_left(17) ^ attempt as u64);
        let frac = 0.5 + (jitter_word >> 11) as f64 / (1u64 << 53) as f64; // 0.5..1.5
        Duration::from_secs_f64(exp.as_secs_f64() * frac).min(self.cap)
    }
}

/// What one logical request cost after retries.
#[derive(Debug)]
pub struct Attempted {
    /// Final outcome: a status-coded response, or the transport error
    /// that survived every retry.
    pub result: io::Result<(u16, String)>,
    /// Retries consumed (0 = first attempt succeeded).
    pub retries: u32,
}

/// `Retry-After` seconds from a response's headers, if present.
fn retry_after(headers: &[(String, String)]) -> Option<Duration> {
    headers
        .iter()
        .find(|(k, _)| k == "retry-after")
        .and_then(|(_, v)| v.parse::<u64>().ok())
        .map(Duration::from_secs)
}

/// Issues one request with retries, reusing (and on failure, replacing)
/// the keep-alive connection in `conn`. `key` decorrelates jitter
/// between concurrent callers — pass a per-request counter.
pub fn request_with_retry(
    conn: &mut Option<ClientConn>,
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    policy: &RetryPolicy,
    key: u64,
) -> Attempted {
    let mut retries = 0u32;
    loop {
        let attempt = match conn.as_mut() {
            Some(c) => c.request_with_headers(method, path, body),
            None => match ClientConn::connect(addr, policy.timeout) {
                Ok(c) => {
                    let c = conn.insert(c);
                    c.request_with_headers(method, path, body)
                }
                Err(e) => Err(e),
            },
        };
        match attempt {
            // 429 backpressure always invites a retry; 503 only when the
            // server said `Retry-After` (a draining daemon does — see
            // `routes::draining_reply` — and wants the client elsewhere
            // meanwhile, so the stale keep-alive connection is dropped).
            Ok((status @ (429 | 503), headers, body))
                if status == 429 || retry_after(&headers).is_some() =>
            {
                if retries >= policy.max_retries {
                    return Attempted {
                        result: Ok((status, body)),
                        retries,
                    };
                }
                retries += 1;
                if status == 503 {
                    // The draining server closes the connection after a
                    // 503; reconnect (possibly to a different node
                    // behind the same address) instead of reusing it.
                    *conn = None;
                }
                let wait = retry_after(&headers)
                    .unwrap_or_else(|| policy.backoff(key, retries))
                    .min(policy.cap);
                std::thread::sleep(wait);
            }
            Ok((status, _headers, body)) => {
                return Attempted {
                    result: Ok((status, body)),
                    retries,
                }
            }
            Err(e) => {
                // Any transport failure invalidates the connection; the
                // next attempt reconnects from scratch.
                *conn = None;
                if retries >= policy.max_retries {
                    return Attempted {
                        result: Err(e),
                        retries,
                    };
                }
                retries += 1;
                std::thread::sleep(policy.backoff(key, retries));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_is_jittered_and_capped() {
        let p = RetryPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            seed: 5,
            ..RetryPolicy::default()
        };
        let b1 = p.backoff(1, 1);
        let b2 = p.backoff(1, 2);
        let b3 = p.backoff(1, 6);
        // Attempt 1 is 20 ms ± 50%; attempt 2 is 40 ms ± 50%.
        assert!(b1 >= Duration::from_millis(10) && b1 <= Duration::from_millis(30));
        assert!(b2 >= Duration::from_millis(20) && b2 <= Duration::from_millis(60));
        assert_eq!(b3, Duration::from_millis(200), "cap must bound the wait");
        // Deterministic for the same (seed, key, attempt)…
        assert_eq!(p.backoff(1, 1), b1);
        // …and decorrelated across keys.
        assert_ne!(p.backoff(1, 1), p.backoff(2, 1));
    }

    #[test]
    fn connect_refusal_is_retried_then_reported() {
        // Nothing listens on this port (bound but not accepting would be
        // racy; an unroutable refused connect is deterministic enough).
        let p = RetryPolicy {
            max_retries: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            timeout: Duration::from_millis(200),
            ..RetryPolicy::default()
        };
        let mut conn = None;
        let out = request_with_retry(&mut conn, "127.0.0.1:9", "GET", "/healthz", None, &p, 0);
        assert!(out.result.is_err(), "no server: the request must fail");
        assert_eq!(out.retries, 2, "both retries must be consumed");
    }

    #[test]
    fn drain_503_with_retry_after_is_retried() {
        use std::io::Write;
        use std::net::TcpListener;
        // A fake draining server: answers 503 + Retry-After once, then a
        // 200 on the retry's fresh connection.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let responses = [
                "HTTP/1.1 503 Service Unavailable\r\ncontent-length: 2\r\n\
                 retry-after: 0\r\nconnection: close\r\n\r\n{}",
                "HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}",
            ];
            for resp in responses {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = [0u8; 1024];
                let _ = std::io::Read::read(&mut s, &mut buf);
                s.write_all(resp.as_bytes()).unwrap();
            }
        });
        let p = RetryPolicy {
            max_retries: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(5),
            timeout: Duration::from_secs(5),
            ..RetryPolicy::default()
        };
        let mut conn = None;
        let out = request_with_retry(&mut conn, &addr, "GET", "/tables/table1", None, &p, 0);
        assert_eq!(out.result.unwrap().0, 200, "retry must reach the 200");
        assert_eq!(out.retries, 1, "exactly one 503-driven retry");
        server.join().unwrap();
    }

    #[test]
    fn bare_503_is_not_retried() {
        use std::io::Write;
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = std::io::Read::read(&mut s, &mut buf);
            s.write_all(
                b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 2\r\n\
                  connection: close\r\n\r\n{}",
            )
            .unwrap();
        });
        let p = RetryPolicy {
            max_retries: 3,
            timeout: Duration::from_secs(5),
            ..RetryPolicy::default()
        };
        let mut conn = None;
        let out = request_with_retry(&mut conn, &addr, "GET", "/healthz", None, &p, 0);
        assert_eq!(out.result.unwrap().0, 503);
        assert_eq!(out.retries, 0, "no Retry-After means no retry");
        server.join().unwrap();
    }
}
