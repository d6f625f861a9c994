//! The load generator: seeded open-loop schedules and a closed-loop phase,
//! driven over at most two keep-alive connections from this process.
//!
//! Open loop: every request has a due time fixed before the phase starts.
//! Latency is measured from the due time, so a stall also charges the wait
//! it imposes on the requests queued behind it. Generator lateness is how
//! long a connection that was already free overslept a due time; it measures
//! the generator, not the server.
//!
//! Each class has its own lane: reads (`/knn`, `/score_links`) go out on one
//! connection, expensive work (`/encode`, `/upsert`, `/delete`) on the
//! other. A read then waits for the server, never behind a slow request this
//! generator happened to put on the same socket.

use std::time::{Duration, Instant};

use coane_serve::HttpClient;

/// Connections the open loop drives (sized for a two-core host).
pub const CONNECTIONS: usize = 2;
/// Connections the closed loop drives. With two, the micro-batcher locks
/// the two request streams either into shared rounds or into alternating
/// ones, and throughput flips between two values about 1.8× apart from run
/// to run.
pub const CLOSED_CONNECTIONS: usize = 1;
/// A request answered later than this after its due time counts as timed
/// out: it is a failure, not a latency sample.
pub const TIMEOUT_S: f64 = 2.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Approximate `/knn` by stored id.
    Knn,
    /// Exact `/knn` by vector.
    KnnExact,
    Links,
    Encode,
    Upsert,
    Delete,
}

impl Class {
    pub fn path(self) -> &'static str {
        match self {
            Class::Knn | Class::KnnExact => "/knn",
            Class::Links => "/score_links",
            Class::Encode => "/encode",
            Class::Upsert => "/upsert",
            Class::Delete => "/delete",
        }
    }

    fn is_write(self) -> bool {
        matches!(self, Class::Upsert | Class::Delete)
    }

    /// The open-loop connection this class is sent on.
    fn lane(self) -> usize {
        match self {
            Class::Knn | Class::KnnExact | Class::Links => 0,
            Class::Encode | Class::Upsert | Class::Delete => 1,
        }
    }
}

/// One request: its class, body, and (open loop) due time in seconds from
/// the phase start.
#[derive(Clone, Debug)]
pub struct Request {
    pub at: f64,
    pub class: Class,
    pub body: String,
}

/// What happened to one open-loop request.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub class: Class,
    /// HTTP status; 0 when the transport failed.
    pub status: u16,
    /// Seconds from due time to the complete response.
    pub latency_s: f64,
    /// Seconds the generator sent late while the connection was free.
    pub late_s: f64,
    /// Response body, kept for mutations (their acks feed the oracle).
    pub body: Option<String>,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        self.status == 200 && self.latency_s <= TIMEOUT_S
    }

    /// Latency for percentile purposes: failures, sheds and timeouts miss
    /// every limit.
    pub fn latency_or_inf(&self) -> f64 {
        if self.ok() {
            self.latency_s
        } else {
            f64::INFINITY
        }
    }
}

/// Per-phase request accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub shed: u64,
    pub failed: u64,
}

impl Tally {
    pub fn of(outcomes: &[Outcome]) -> Self {
        let mut t = Tally::default();
        for o in outcomes {
            t.record(o.status, o.latency_s);
        }
        t
    }

    fn record(&mut self, status: u16, latency_s: f64) {
        self.sent += 1;
        match status {
            200 if latency_s <= TIMEOUT_S => self.ok += 1,
            429 => self.shed += 1,
            _ => self.failed += 1,
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.shed += other.shed;
        self.failed += other.failed;
    }
}

/// Runs an open-loop schedule (sorted by `at`) and returns one outcome per
/// request, in schedule order.
pub fn run_open(addr: &str, schedule: &[Request]) -> Vec<Outcome> {
    let start = Instant::now() + Duration::from_millis(20);
    let mut outcomes: Vec<(usize, Outcome)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|lane| {
                s.spawn(move || {
                    let mut client = HttpClient::new(addr);
                    let mut out = Vec::new();
                    for (i, req) in
                        schedule.iter().enumerate().filter(|(_, r)| r.class.lane() == lane)
                    {
                        let free_at = Instant::now();
                        let due = start + Duration::from_secs_f64(req.at);
                        if let Some(wait) = due.checked_duration_since(free_at) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let late_s = sent.saturating_duration_since(due.max(free_at)).as_secs_f64();
                        let (status, body) =
                            match client.request("POST", req.class.path(), &req.body) {
                                Ok((status, body)) => (status, Some(body)),
                                Err(_) => (0, None),
                            };
                        let latency_s = Instant::now().saturating_duration_since(due).as_secs_f64();
                        let body = if req.class.is_write() { body } else { None };
                        out.push((
                            i,
                            Outcome { class: req.class, status, latency_s, late_s, body },
                        ));
                    }
                    out
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("load worker panicked")).collect()
    });
    outcomes.sort_by_key(|(i, _)| *i);
    outcomes.into_iter().map(|(_, o)| o).collect()
}

/// Closed loop: each connection sends its next request as soon as the
/// previous answer arrives, cycling through `mix`, for `seconds`. Returns
/// the tally and the completed-OK rate in requests per second.
pub fn run_closed(addr: &str, mix: &[Request], seconds: f64) -> (Tally, f64) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLOSED_CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut client = HttpClient::new(addr);
                    let mut tally = Tally::default();
                    let mut i = c;
                    while Instant::now() < deadline {
                        let req = &mix[i % mix.len()];
                        i += CLOSED_CONNECTIONS;
                        let t = Instant::now();
                        let status =
                            client.request("POST", req.class.path(), &req.body).map_or(0, |r| r.0);
                        tally.record(status, t.elapsed().as_secs_f64());
                    }
                    tally
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("closed-loop worker panicked")).collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut total = Tally::default();
    for t in tallies {
        total.add(t);
    }
    let qps = total.ok as f64 / elapsed;
    (total, qps)
}

/// A fixed offered rate per class: class `c` is due every `1 / rate_c`
/// seconds from a seeded phase, so no class arrives in bursts. Bodies are
/// built by `make` in due-time order.
pub fn fixed_rate_schedule(
    rng: &mut rand_chacha::ChaCha8Rng,
    seconds: f64,
    rates: &[(Class, f64)],
    mut make: impl FnMut(Class, &mut rand_chacha::ChaCha8Rng) -> String,
) -> Vec<Request> {
    use rand::Rng;
    let mut due: Vec<(f64, Class)> = Vec::new();
    for &(class, rate) in rates {
        let phase: f64 = rng.gen();
        let count = (seconds * rate - phase).ceil().max(0.0) as usize;
        due.extend((0..count).map(|k| ((k as f64 + phase) / rate, class)));
    }
    due.sort_by(|a, b| a.0.total_cmp(&b.0));
    due.into_iter().map(|(at, class)| Request { at, class, body: make(class, rng) }).collect()
}
