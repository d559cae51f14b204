//! Open-loop load generation over keep-alive connections.
//!
//! Requests are due on a fixed schedule whatever the server does. Each
//! connection thread takes the next request in due order, waits until it is
//! due (sleeping, then spinning for the last moments), and sends it as
//! one buffer on a `TCP_NODELAY` socket, so the client adds no Nagle stall
//! of its own. Latency is timed from when a request was
//! due, so a stall also counts against every request queued behind it; how
//! late the generator sent each request is kept separately. Requests still
//! unsent when the step's window closes are the backlog.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use islaris_obs::http::{read_response, Response};

/// One scheduled request: its due time from the step's start, the index
/// of its pre-rendered request, and whether its spans are recorded.
#[derive(Clone, Copy, Debug)]
pub struct Planned {
    pub due: Duration,
    pub item: usize,
    pub traced: bool,
}

/// One request as the generator saw it. Times are offsets from the
/// step's start; `status` is 0 on a transport error.
#[derive(Debug)]
pub struct Sample {
    pub plan: Planned,
    pub conn: usize,
    pub sent: Duration,
    pub done: Duration,
    pub status: u16,
    pub body: Vec<u8>,
    /// Server-side wall time from the `X-Islaris-Wall-Ns` header.
    pub server_ns: Option<u64>,
    pub error: Option<String>,
    /// Spans recorded on the request path (traced requests only):
    /// `(name, start offset, duration)`.
    pub spans: Vec<(&'static str, Duration, Duration)>,
}

impl Sample {
    /// Latency from when the request was due.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        crate::ms(self.done.saturating_sub(self.plan.due))
    }

    /// How late the generator sent the request.
    #[must_use]
    pub fn late_ms(&self) -> f64 {
        crate::ms(self.sent.saturating_sub(self.plan.due))
    }

    /// Time from send to the full response.
    #[must_use]
    pub fn exchange_ms(&self) -> f64 {
        crate::ms(self.done.saturating_sub(self.sent))
    }
}

pub struct StepOutcome {
    /// The instant due times count from.
    pub start: Instant,
    /// Every request sent, in no particular order.
    pub samples: Vec<Sample>,
    /// Requests due in the window but not sent before it closed.
    pub unsent: usize,
    /// Times of the host-speed calibration kernel taken in the step's
    /// gaps, in ms (empty unless asked for).
    pub kernel_ms: Vec<f64>,
}

/// One request as a single buffer.
#[must_use]
pub fn wire(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// A keep-alive client connection with `TCP_NODELAY` set.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// # Errors
    ///
    /// Connection or socket-option failures.
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Writes one pre-rendered request and reads its response.
    ///
    /// # Errors
    ///
    /// Transport or framing failures, as text.
    pub fn exchange(&mut self, wire: &[u8]) -> Result<Response, String> {
        self.writer.write_all(wire).map_err(|e| e.to_string())?;
        read_response(&mut self.reader).map_err(|e| format!("{e:?}"))
    }
}

/// Sends one request on a fresh connection.
///
/// # Errors
///
/// Transport or framing failures, as text.
pub fn one_shot(addr: SocketAddr, wire: &[u8]) -> Result<Response, String> {
    Conn::open(addr).map_err(|e| e.to_string())?.exchange(wire)
}

/// Runs one step of the schedule `plan` (due times inside `window`) over
/// the keep-alive connections `conns`, one thread each. A missing or
/// broken connection is (re)opened on its next request, and connections
/// stay open for the next step. With `calibrate`, one more thread times the
/// calibration kernel in the gaps of the schedule.
#[must_use]
pub fn run_step(
    addr: SocketAddr,
    wires: &[Vec<u8>],
    plan: &[Planned],
    conns: &mut [Option<Conn>],
    window: Duration,
    calibrate: bool,
) -> StepOutcome {
    let next = AtomicUsize::new(0);
    let in_flight = AtomicUsize::new(0);
    // A short lead lets every thread connect before the first request is due.
    let start = Instant::now() + Duration::from_millis(20);
    let (samples, kernel_ms): (Vec<Sample>, Vec<f64>) = std::thread::scope(|s| {
        let (next, in_flight) = (&next, &in_flight);
        let calibration = calibrate
            .then(|| s.spawn(move || calibrate_in_gaps(plan, next, in_flight, start, window)));
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    conn_loop(c, conn, addr, wires, plan, next, in_flight, start, window)
                })
            })
            .collect();
        let samples = handles
            .into_iter()
            .flat_map(|h| h.join().expect("load-generator thread panicked"))
            .collect();
        let kernel =
            calibration.map_or_else(Vec::new, |h| h.join().expect("calibration thread panicked"));
        (samples, kernel)
    });
    StepOutcome {
        start,
        unsent: plan.len() - samples.len(),
        samples,
        kernel_ms,
    }
}

/// Times the calibration kernel halfway between consecutive due times,
/// when no request is in flight and the next one has been taken by a
/// thread that waits for it: the host is then idle, and the kernel ends
/// well before the next request is due. A gap without those conditions is
/// skipped.
fn calibrate_in_gaps(
    plan: &[Planned],
    next: &AtomicUsize,
    in_flight: &AtomicUsize,
    start: Instant,
    window: Duration,
) -> Vec<f64> {
    let mut out = Vec::new();
    for (i, pair) in plan.windows(2).enumerate() {
        let at = start + (pair[0].due + pair[1].due) / 2;
        if at >= start + window {
            break;
        }
        std::thread::sleep(at.saturating_duration_since(Instant::now()));
        if next.load(Ordering::SeqCst) >= i + 2 && in_flight.load(Ordering::SeqCst) == 0 {
            out.push(crate::calib::kernel_ms());
        }
    }
    out
}

/// How long before a request is due a connection thread stops sleeping
/// and spins.
const SPIN: Duration = Duration::from_millis(2);

/// Waits until `due`: sleeps until `SPIN` before it, then spins. A sleeping
/// thread wakes late by an amount that depends on the host's load, and
/// that lateness would count against every latency timed from due.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        if due - now > SPIN {
            std::thread::sleep(due - now - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn conn_loop(
    c: usize,
    conn: &mut Option<Conn>,
    addr: SocketAddr,
    wires: &[Vec<u8>],
    plan: &[Planned],
    next: &AtomicUsize,
    in_flight: &AtomicUsize,
    start: Instant,
    window: Duration,
) -> Vec<Sample> {
    if conn.is_none() {
        *conn = Conn::open(addr).ok();
    }
    let mut out = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::SeqCst);
        let Some(&p) = plan.get(i) else { break };
        let due = start + p.due;
        wait_until(due);
        let sent = Instant::now();
        if sent >= start + window {
            break;
        }
        let mut connect_error = String::new();
        if conn.is_none() {
            match Conn::open(addr) {
                Ok(k) => *conn = Some(k),
                Err(e) => connect_error = e.to_string(),
            }
        }
        in_flight.fetch_add(1, Ordering::SeqCst);
        let result = match conn.as_mut() {
            Some(k) => k.exchange(&wires[p.item]),
            None => Err(connect_error),
        };
        let done = Instant::now();
        in_flight.fetch_sub(1, Ordering::SeqCst);
        let mut sample = Sample {
            plan: p,
            conn: c,
            sent: sent - start,
            done: done - start,
            status: 0,
            body: Vec::new(),
            server_ns: None,
            error: None,
            spans: Vec::new(),
        };
        match result {
            Ok(resp) => {
                sample.server_ns = resp
                    .header("X-Islaris-Wall-Ns")
                    .and_then(|v| v.trim().parse().ok());
                sample.status = resp.status;
                sample.body = resp.body;
            }
            Err(e) => {
                sample.error = Some(e);
                *conn = None;
            }
        }
        if p.traced {
            sample.spans = vec![
                ("request", p.due, done.saturating_duration_since(due)),
                ("generator.wait", p.due, sent.saturating_duration_since(due)),
                ("exchange", sample.sent, done - sent),
            ];
        }
        out.push(sample);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use islaris_obs::http::read_request;
    use std::net::TcpListener;

    /// A fake server: answers each request on one connection after the
    /// stall `stall(n)` (n = request number), with `status(n)`.
    fn fake_server(
        stall: fn(usize) -> Duration,
        status: fn(usize) -> u16,
        requests: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for n in 0..requests {
                if read_request(&mut reader).is_err() {
                    return;
                }
                std::thread::sleep(stall(n));
                let body = b"{}";
                let mut resp = format!(
                    "HTTP/1.1 {} X\r\nContent-Length: {}\r\nX-Islaris-Wall-Ns: 1000\r\n\r\n",
                    status(n),
                    body.len()
                )
                .into_bytes();
                resp.extend_from_slice(body);
                writer.write_all(&resp).unwrap();
            }
        });
        (addr, h)
    }

    fn conns(n: usize) -> Vec<Option<Conn>> {
        (0..n).map(|_| None).collect()
    }

    fn plan(n: usize, every_ms: u64) -> Vec<Planned> {
        (0..n)
            .map(|i| Planned {
                due: Duration::from_millis(every_ms * i as u64),
                item: 0,
                traced: i % 2 == 0,
            })
            .collect()
    }

    #[test]
    fn a_stall_counts_against_every_request_queued_behind_it() {
        let (addr, h) = fake_server(
            |n| Duration::from_millis(if n == 0 { 300 } else { 0 }),
            |_| 200,
            4,
        );
        let wires = vec![wire("GET", "/health", b"")];
        let out = run_step(
            addr,
            &wires,
            &plan(4, 50),
            &mut conns(1),
            Duration::from_secs(5),
            false,
        );
        h.join().unwrap();
        assert_eq!(out.unsent, 0);
        let mut s = out.samples;
        s.sort_by_key(|x| x.plan.due);
        assert!(s
            .iter()
            .all(|x| x.status == 200 && x.server_ns == Some(1000)));
        assert!(s[0].latency_ms() >= 300.0, "{}", s[0].latency_ms());
        // Request 1 was due at 50 ms but could only go out after the
        // stalled response at ~300 ms: its own exchange is fast, yet its
        // latency from due carries the wait.
        assert!(s[1].latency_ms() >= 240.0, "{}", s[1].latency_ms());
        assert!(s[1].late_ms() >= 240.0, "{}", s[1].late_ms());
        assert!(s[1].exchange_ms() < 150.0, "{}", s[1].exchange_ms());
        assert!(s[3].latency_ms() >= 140.0, "{}", s[3].latency_ms());
        // Traced requests carry their spans; untraced ones carry none.
        assert_eq!(s[0].spans.len(), 3);
        assert!(s[1].spans.is_empty());
    }

    #[test]
    fn a_closed_window_leaves_the_backlog_unsent() {
        let (addr, h) = fake_server(|_| Duration::from_millis(100), |_| 200, 2);
        let wires = vec![wire("GET", "/health", b"")];
        // Ten requests due in the first 90 ms; at 100 ms each, only the
        // first two go out before the 150 ms window closes.
        let out = run_step(
            addr,
            &wires,
            &plan(10, 10),
            &mut conns(1),
            Duration::from_millis(150),
            false,
        );
        h.join().unwrap();
        assert_eq!(out.samples.len(), 2);
        assert_eq!(out.unsent, 8);
    }

    #[test]
    fn the_kernel_runs_only_in_idle_gaps() {
        let wires = vec![wire("GET", "/health", b"")];
        let window = Duration::from_secs(5);
        // Requests 100 ms apart, answered at once: all three gaps are idle.
        let (addr, h) = fake_server(|_| Duration::ZERO, |_| 200, 4);
        let out = run_step(addr, &wires, &plan(4, 100), &mut conns(1), window, true);
        h.join().unwrap();
        assert_eq!(out.kernel_ms.len(), 3);
        // Each answer takes 80 ms, past the middle of its gap: no gap is idle.
        let (addr, h) = fake_server(|_| Duration::from_millis(80), |_| 200, 4);
        let out = run_step(addr, &wires, &plan(4, 100), &mut conns(1), window, true);
        h.join().unwrap();
        assert_eq!(out.samples.len(), 4);
        assert!(out.kernel_ms.is_empty(), "{:?}", out.kernel_ms);
    }

    #[test]
    fn refused_connections_are_transport_errors() {
        // A port with no listener: every request is refused.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let wires = vec![wire("GET", "/health", b"")];
        let out = run_step(
            addr,
            &wires,
            &plan(5, 1),
            &mut conns(2),
            Duration::from_secs(5),
            false,
        );
        assert_eq!(out.unsent, 0);
        assert_eq!(out.samples.len(), 5);
        assert!(out
            .samples
            .iter()
            .all(|s| s.status == 0 && s.error.is_some()));
    }
}
