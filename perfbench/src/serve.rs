//! The served phases: an `fj-serve` server on loopback, driven by two client
//! connections with an open-loop Poisson schedule, and by one connection
//! that pairs every request with a run of the reference join.
//!
//! Every request executes a prepared template with a filter override that
//! selects a window of one column. About 80% of requests draw their window
//! from a small hot set whose tries stay in the trie cache; the rest use a
//! window never sent before, so selection and a trie build happen inside the
//! request. Open-loop latency is measured from each request's *due* time, so
//! a stall also charges the requests queued behind it.

use crate::data::{Rng, Template};
use crate::reference::Reference;
use crate::spans::Recorder;
use crate::stats::{geomean, median, tail, Tail};
use crate::Tally;
use fj_query::{parse_filter, Aggregate};
use fj_serve::{Client, ClientError, PreparedHandle, Server, ServerConfig, ServerStats};
use fj_storage::Catalog;
use free_join::{EngineCaches, EngineError, Params, Prepared, Session};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The p99 latency limit a rate is reported against.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Client connections (one request in flight on each) and server workers.
pub const CONNECTIONS: usize = 2;
/// Hot windows per template.
pub const HOT_PER_TEMPLATE: usize = 6;
/// Share of requests drawn from the hot set.
pub const HOT_SHARE: f64 = 0.8;
/// The `low` and `high` rates as shares of the measured capacity.
pub const LOW_LOAD: f64 = 0.3;
/// See [`LOW_LOAD`].
pub const HIGH_LOAD: f64 = 0.7;

/// One request: a template and the start of its window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Req {
    /// Template index.
    pub template: usize,
    /// Window start.
    pub lo: i64,
    /// Whether the window had never been sent before.
    pub fresh: bool,
}

/// The seeded request mix: a fixed hot set plus a supply of unseen windows.
#[derive(Debug)]
pub struct Mix {
    ranges: Vec<i64>,
    hot: Vec<Vec<i64>>,
    used: HashSet<(usize, i64)>,
    rng: Rng,
}

impl Mix {
    /// The mix for `templates`, drawn from `seed`.
    pub fn new(templates: &[Template], seed: u64) -> Result<Mix, String> {
        let ranges: Vec<i64> = templates.iter().map(|t| t.domain - t.width).collect();
        let mut mix = Mix { ranges, hot: Vec::new(), used: HashSet::new(), rng: Rng::new(seed) };
        mix.hot = (0..templates.len())
            .map(|t| (0..HOT_PER_TEMPLATE).map(|_| mix.unseen(t)).collect())
            .collect::<Result<_, _>>()?;
        Ok(mix)
    }

    /// A window start of `template` never drawn before. Fails, rather than
    /// searching forever, once random draws keep hitting used windows.
    fn unseen(&mut self, template: usize) -> Result<i64, String> {
        for _ in 0..1_000 {
            let lo = self.rng.below(self.ranges[template] as u64 + 1) as i64;
            if self.used.insert((template, lo)) {
                return Ok(lo);
            }
        }
        Err(format!(
            "template {template} ran out of unseen windows after {} draws; use fewer --seconds",
            self.used.len()
        ))
    }

    /// Return fresh requests that were drawn but never sent, so that their
    /// windows stay unseen.
    pub fn release(&mut self, unsent: impl IntoIterator<Item = Req>) {
        for r in unsent.into_iter().filter(|r| r.fresh) {
            self.used.remove(&(r.template, r.lo));
        }
    }

    /// Every hot request, once.
    pub fn hot(&self) -> Vec<Req> {
        let mut out = Vec::new();
        for (template, los) in self.hot.iter().enumerate() {
            out.extend(los.iter().map(|&lo| Req { template, lo, fresh: false }));
        }
        out
    }

    /// The next request of the mix.
    pub fn next(&mut self) -> Result<Req, String> {
        let template = self.rng.below(self.hot.len() as u64) as usize;
        Ok(if self.rng.unit() < HOT_SHARE {
            let lo = self.hot[template][self.rng.below(HOT_PER_TEMPLATE as u64) as usize];
            Req { template, lo, fresh: false }
        } else {
            Req { template, lo: self.unseen(template)?, fresh: true }
        })
    }
}

/// An open-loop Poisson schedule at `rate` requests/s over `duration`:
/// `(due offset in ns, request)` in due order.
pub fn poisson(
    mix: &mut Mix,
    rng: &mut Rng,
    rate: f64,
    duration: Duration,
) -> Result<Vec<(u64, Req)>, String> {
    let end = duration.as_nanos() as f64;
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += rng.exp(1e9 / rate);
        if t >= end {
            return Ok(out);
        }
        out.push((t as u64, mix.next()?));
    }
}

/// What a request got back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// An answer.
    Answer {
        /// Output cardinality.
        cardinality: u64,
        /// Server-side service time, µs.
        service_us: u64,
    },
    /// Shed by admission control.
    Busy,
    /// Any other failure.
    Error(String),
}

/// One request's timeline, in ns from the schedule's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The request.
    pub req: Req,
    /// When it was due.
    pub due_ns: u64,
    /// When its connection became free to take it.
    pub free_ns: u64,
    /// When it was sent.
    pub send_ns: u64,
    /// When its response arrived.
    pub done_ns: u64,
    /// The response.
    pub outcome: Outcome,
}

impl Record {
    /// Latency from the due time, ms: includes any wait behind earlier
    /// requests on a busy connection.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// How late the generator itself sent: the send time minus the moment
    /// the request could first have gone (its due time, or later when its
    /// connection was still busy), ms.
    pub fn lateness_ms(&self) -> f64 {
        self.send_ns.saturating_sub(self.due_ns.max(self.free_ns)) as f64 / 1e6
    }

    /// Time the request waited past its due time before being sent, ms.
    pub fn queue_ms(&self) -> f64 {
        self.send_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// Client round trip, µs.
    pub fn round_trip_us(&self) -> f64 {
        self.done_ns.saturating_sub(self.send_ns) as f64 / 1e3
    }
}

/// A running server with its connections and prepared template handles.
pub struct Served {
    server: Server,
    /// The client connections.
    clients: Vec<Client>,
    /// One handle per template.
    handles: Vec<PreparedHandle>,
}

fn client_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// A session on fresh caches (default 256 MiB trie budget) with the engine
/// at one thread and the default optimizer, as the server runs it.
fn serving_session() -> Session {
    Session::new(Arc::new(EngineCaches::with_defaults()))
        .with_options(crate::engines::fj_options(1))
}

/// Start a server (`ServerConfig::default()` with two workers, so
/// per-execution profiling for the slow-query log stays on; engine at one
/// thread), connect, prepare every template and run the hot set once.
pub fn start(catalog: Arc<Catalog>, templates: &[Template], mix: &Mix) -> Result<Served, String> {
    let session = serving_session();
    let config = ServerConfig { workers: CONNECTIONS, ..ServerConfig::default() };
    let server = Server::start("127.0.0.1:0", catalog, session, config)
        .map_err(|e| client_err("server start", e))?;
    let mut clients = Vec::new();
    for _ in 0..CONNECTIONS {
        clients.push(Client::connect(server.local_addr()).map_err(|e| client_err("connect", e))?);
    }
    // Every connection prepares every template, as independent clients
    // would; the server hands back the same handle for the same query, and
    // the plan cache serves all but the first prepare.
    let mut handles = Vec::new();
    for client in &mut clients {
        handles.clear();
        for t in templates {
            let h = client.prepare(t.text.clone(), Aggregate::Count);
            handles.push(h.map_err(|e| client_err(&format!("prepare {}", t.name), e))?);
        }
    }
    for req in mix.hot() {
        let t = &templates[req.template];
        clients[0]
            .execute_with(handles[req.template], &[(t.alias, &t.filter(req.lo))])
            .map_err(|e| client_err(&format!("warm-up {}", t.name), e))?;
    }
    Ok(Served { server, clients, handles })
}

impl Served {
    /// A stats snapshot.
    pub fn stats(&self) -> ServerStats {
        self.server.stats()
    }

    /// Close the connections, shut the server down and wait for its threads.
    pub fn stop(self) -> ServerStats {
        drop(self.clients);
        self.server.shutdown();
        self.server.join()
    }

    /// Send `schedule` over the connections, each taking the next request
    /// as soon as it is free and sleeping until that request is due. With
    /// `stop_after`, stop taking requests once that much time has passed
    /// (a closed loop when every request is due at once). With `origin`,
    /// each connection records spans around the filter parse and the
    /// execute call.
    pub fn drive(
        &mut self,
        templates: &[Template],
        schedule: &[(u64, Req)],
        stop_after: Option<Duration>,
        origin: Option<Instant>,
    ) -> (Vec<Record>, Vec<Recorder>) {
        let next = AtomicUsize::new(0);
        let handles = &self.handles;
        let start = Instant::now();
        let limit = stop_after.map(|d| d.as_nanos() as u64);
        let now = || start.elapsed().as_nanos() as u64;
        let mut records = Vec::with_capacity(schedule.len());
        let mut recorders = Vec::new();
        std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(tid, client)| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut rec = origin.map(|o| Recorder::new(o, tid + 1));
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::SeqCst);
                            let free_ns = now();
                            if i >= schedule.len() || limit.is_some_and(|l| free_ns >= l) {
                                break;
                            }
                            let (due_ns, req) = schedule[i];
                            if due_ns > free_ns {
                                std::thread::sleep(Duration::from_nanos(due_ns - free_ns));
                            }
                            let t = &templates[req.template];
                            let filter = t.filter(req.lo);
                            if let Some(r) = rec.as_mut() {
                                let _ = r.time("fj-query.parse_filter", || parse_filter(&filter));
                            }
                            let send_ns = now();
                            let params = [(t.alias, filter.as_str())];
                            let result = match rec.as_mut() {
                                Some(r) => r.time("fj-serve.execute", || {
                                    client.execute_with(handles[req.template], &params)
                                }),
                                None => client.execute_with(handles[req.template], &params),
                            };
                            let done_ns = now();
                            let outcome = match result {
                                Ok(a) => Outcome::Answer {
                                    cardinality: a.cardinality,
                                    service_us: a.service_us,
                                },
                                Err(ClientError::Busy { .. }) => Outcome::Busy,
                                Err(e) => Outcome::Error(e.to_string()),
                            };
                            out.push(Record { req, due_ns, free_ns, send_ns, done_ns, outcome });
                        }
                        (out, rec)
                    })
                })
                .collect();
            for w in workers {
                let (out, rec) = w.join().expect("client threads do not panic");
                records.extend(out);
                recorders.extend(rec);
            }
        });
        records.sort_by_key(|r| r.due_ns);
        (records, recorders)
    }
}

/// Closed-loop capacity: requests completed per second with both
/// connections always busy, over `duration`.
pub fn capacity(
    served: &mut Served,
    templates: &[Template],
    mix: &mut Mix,
    duration: Duration,
) -> Result<(f64, Vec<Record>), String> {
    // Every request is due at once, so both connections stay busy; the
    // schedule holds more requests than a loopback server can answer in
    // `duration`. The unsent tail never reaches the server, and its fresh
    // windows go back to the mix.
    let n = (duration.as_secs_f64() * 5_000.0) as usize;
    let schedule = (0..n).map(|_| Ok((0, mix.next()?))).collect::<Result<Vec<_>, String>>()?;
    let (records, _) = served.drive(templates, &schedule, Some(duration), None);
    let sent: HashSet<Req> = records.iter().map(|r| r.req).collect();
    mix.release(schedule.iter().map(|&(_, r)| r).filter(|r| !sent.contains(r)));
    let elapsed = records.iter().map(|r| r.done_ns).max().unwrap_or(1) as f64 / 1e9;
    Ok((records.len() as f64 / elapsed, records))
}

/// The paired served phase: one connection sends requests of the mix one
/// at a time, each right after a run of the reference join on the client,
/// for `duration`. Nothing else runs meanwhile, so a request and its
/// reference meet the same machine speed. Returns the records and, per
/// record, the reference time in ms.
pub fn paired(
    served: &mut Served,
    templates: &[Template],
    mix: &mut Mix,
    reference: &Reference,
    duration: Duration,
    tally: &mut Tally,
) -> Result<(Vec<Record>, Vec<f64>), String> {
    let (mut records, mut refs) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let now = || start.elapsed().as_nanos() as u64;
    while start.elapsed() < duration {
        let req = mix.next()?;
        let ref_start = Instant::now();
        let count = reference.run();
        let ref_ms = ref_start.elapsed().as_secs_f64() * 1e3;
        if !tally.check("reference", "bench", Ok(count), reference.expected()) {
            continue;
        }
        let t = &templates[req.template];
        let filter = t.filter(req.lo);
        let send_ns = now();
        let result =
            served.clients[0].execute_with(served.handles[req.template], &[(t.alias, &filter)]);
        let done_ns = now();
        let outcome = match result {
            Ok(a) => Outcome::Answer { cardinality: a.cardinality, service_us: a.service_us },
            Err(ClientError::Busy { .. }) => Outcome::Busy,
            Err(e) => Outcome::Error(e.to_string()),
        };
        records.push(Record { req, due_ns: send_ns, free_ns: send_ns, send_ns, done_ns, outcome });
        refs.push(ref_ms);
    }
    Ok((records, refs))
}

/// Served round trip over the paired reference time: per class of request
/// (template, hot or fresh) the median over answered requests, then the
/// geo-mean over classes, so that the cached path and the path that builds a
/// trie inside the request both weigh in whatever their share of the mix.
pub fn served_ref_x(records: &[Record], refs: &[f64]) -> f64 {
    let mut classes: BTreeMap<(usize, bool), Vec<f64>> = BTreeMap::new();
    for (r, &ref_ms) in records.iter().zip(refs) {
        if matches!(r.outcome, Outcome::Answer { .. }) && ref_ms > 0.0 {
            let ratio = r.round_trip_us() / 1e3 / ref_ms;
            classes.entry((r.req.template, r.req.fresh)).or_default().push(ratio);
        }
    }
    let medians: Vec<f64> = classes.values().map(|xs| median(xs)).collect();
    geomean(&medians)
}

/// One rate's outcome.
#[derive(Debug, Clone)]
pub struct RateResult {
    /// Answered requests per second of schedule.
    pub achieved: f64,
    /// Median latency from the due time (failures count as infinitely late).
    pub p50: Tail,
    /// p99 latency, or the highest percentile with ten samples beyond it.
    pub p99: Tail,
    /// Whether the rate met [`LATENCY_LIMIT_MS`] without a growing backlog.
    pub meets_limit: bool,
}

/// Summarize one rate's records. A request that failed counts as missing
/// any latency limit. The backlog is growing when the last tenth of the
/// requests waited, at the median, more than half the limit to be sent.
pub fn summarize_rate(records: &[Record], duration: Duration) -> RateResult {
    let latencies: Vec<f64> = records
        .iter()
        .map(|r| match r.outcome {
            Outcome::Answer { .. } => r.latency_ms(),
            _ => f64::INFINITY,
        })
        .collect();
    let answered = latencies.iter().filter(|l| l.is_finite()).count();
    let p50 = tail(&latencies, 50.0);
    let p99 = tail(&latencies, 99.0);
    let last: Vec<f64> = records[records.len() - records.len() / 10..]
        .iter()
        .map(Record::queue_ms)
        .collect();
    let backlog_ok = last.is_empty() || median(&last) <= LATENCY_LIMIT_MS / 2.0;
    RateResult {
        achieved: answered as f64 / duration.as_secs_f64(),
        p50,
        p99,
        meets_limit: !records.is_empty() && p99.value <= LATENCY_LIMIT_MS && backlog_ok,
    }
}

/// Computes each request's expected answer in process: the same template
/// prepared on a separate `Session` (its own caches) and executed with the
/// same override through `Prepared::execute_with`. Answers are memoized per
/// window; the first execution of each window is timed.
pub struct Checker<'a> {
    catalog: &'a Catalog,
    templates: &'a [Template],
    prepared: Vec<Prepared>,
    memo: HashMap<(usize, i64), u64>,
    /// In-process times of hot-window executions after the first, ms.
    pub hot_ms: Vec<f64>,
    /// In-process times of first executions of fresh windows, ms.
    pub fresh_ms: Vec<f64>,
}

impl<'a> Checker<'a> {
    /// Prepare every template on a fresh session.
    pub fn new(catalog: &'a Catalog, templates: &'a [Template]) -> Result<Self, String> {
        let session = serving_session();
        let prepared = templates
            .iter()
            .map(|t| session.prepare(catalog, &t.query).map_err(|e| client_err(&t.name, e)))
            .collect::<Result<_, _>>()?;
        Ok(Checker {
            catalog,
            templates,
            prepared,
            memo: HashMap::new(),
            hot_ms: Vec::new(),
            fresh_ms: Vec::new(),
        })
    }

    /// The override parameters of `req`.
    pub fn params(&self, req: Req) -> Result<Params, String> {
        let t = &self.templates[req.template];
        let filter = parse_filter(&t.filter(req.lo)).map_err(|e| client_err(&t.name, e))?;
        Ok(Params::new().with_filter(t.alias, filter))
    }

    /// The in-process prepared statement of a template.
    pub fn prepared(&self, template: usize) -> &Prepared {
        &self.prepared[template]
    }

    /// The expected cardinality of `req`.
    pub fn expected(&mut self, req: Req) -> Result<u64, String> {
        if let Some(&c) = self.memo.get(&(req.template, req.lo)) {
            return Ok(c);
        }
        let params = self.params(req)?;
        let start = Instant::now();
        let r: Result<_, EngineError> =
            self.prepared[req.template].execute_with(self.catalog, &params);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let c = r
            .map_err(|e| client_err(&self.templates[req.template].name, e))?
            .0
            .cardinality();
        if req.fresh {
            self.fresh_ms.push(ms);
        } else {
            // Hot windows: time a second, cache-served execution.
            let start = Instant::now();
            let again = self.prepared[req.template].execute_with(self.catalog, &params);
            self.hot_ms.push(start.elapsed().as_secs_f64() * 1e3);
            if again.map(|(o, _)| o.cardinality()).ok() != Some(c) {
                return Err(format!(
                    "{}: warm re-execution disagrees",
                    self.templates[req.template].name
                ));
            }
        }
        self.memo.insert((req.template, req.lo), c);
        Ok(c)
    }

    /// Check every served answer against the in-process one.
    pub fn check(&mut self, records: &[Record], tally: &mut Tally) {
        for r in records {
            let name = &self.templates[r.req.template].name;
            let got = match &r.outcome {
                Outcome::Answer { cardinality, .. } => Ok(*cardinality),
                Outcome::Busy => Err("shed with Busy".to_string()),
                Outcome::Error(e) => Err(e.clone()),
            };
            match self.expected(r.req) {
                Ok(want) => {
                    tally.check(name, "served", got, want);
                }
                Err(e) => {
                    tally.check(name, "in-process", Err(e), 0);
                }
            }
        }
    }
}

/// Paired in-process overhead of per-execution profiling:
/// `execute_profiled` against `execute_with` on the hot requests, the order
/// alternating per pair. One value per pair, in percent.
pub fn profile_overhead(
    checker: &Checker,
    catalog: &Catalog,
    hot: &[Req],
    pairs: usize,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let req = hot[i % hot.len()];
        let Ok(params) = checker.params(req) else { continue };
        let p = checker.prepared(req.template);
        let time = |profiled: bool| {
            let start = Instant::now();
            let ok = if profiled {
                p.execute_profiled(catalog, &params).is_ok()
            } else {
                p.execute_with(catalog, &params).is_ok()
            };
            (ok, start.elapsed().as_secs_f64())
        };
        let ((ok_a, a), (ok_b, b)) = if i % 2 == 0 {
            let a = time(true);
            (a, time(false))
        } else {
            let b = time(false);
            (time(true), b)
        };
        if ok_a && ok_b && b > 0.0 {
            out.push((a - b) / b * 100.0);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(due_ns: u64, free_ns: u64, send_ns: u64, done_ns: u64) -> Record {
        Record {
            req: Req { template: 0, lo: 0, fresh: false },
            due_ns,
            free_ns,
            send_ns,
            done_ns,
            outcome: Outcome::Answer { cardinality: 1, service_us: 1 },
        }
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // Due at 10 ms, connection busy until 25 ms, sent at 25.5 ms, done
        // at 30 ms: the request waited 15.5 ms behind earlier work, the
        // generator itself was 0.5 ms late, and the latency is 20 ms.
        let r = rec(10_000_000, 25_000_000, 25_500_000, 30_000_000);
        assert_eq!(r.latency_ms(), 20.0);
        assert_eq!(r.queue_ms(), 15.5);
        assert_eq!(r.lateness_ms(), 0.5);
        assert_eq!(r.round_trip_us(), 4500.0);
        // Connection free before the due time: lateness is the oversleep.
        let r = rec(10_000_000, 2_000_000, 10_200_000, 11_000_000);
        assert!((r.lateness_ms() - 0.2).abs() < 1e-9);
        assert!((r.latency_ms() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_stall_charges_the_requests_queued_behind_it() {
        // Requests due every ms; the first takes 10 ms, the rest 0.1 ms, on
        // one connection. A closed-loop measurement would report 0.1 ms for
        // the rest; measured from the due time they waited for the stall.
        let mut free = 0;
        let mut records = Vec::new();
        for i in 0..10u64 {
            let due = i * 1_000_000;
            let send = due.max(free);
            let done = send + if i == 0 { 10_000_000 } else { 100_000 };
            records.push(rec(due, free, send, done));
            free = done;
        }
        let lat: Vec<f64> = records.iter().map(Record::latency_ms).collect();
        assert_eq!(lat[0], 10.0);
        assert!((lat[1] - 9.1).abs() < 1e-9);
        assert!(records.iter().all(|r| r.lateness_ms() == 0.0));
    }

    #[test]
    fn failures_and_backlogs_miss_the_limit() {
        let ok: Vec<Record> = (0..100)
            .map(|i| rec(i * 1_000_000, 0, i * 1_000_000, i * 1_000_000 + 1_000_000))
            .collect();
        let r = summarize_rate(&ok, Duration::from_secs(1));
        assert!(r.meets_limit);
        assert_eq!(r.p50.value, 1.0);
        assert_eq!(r.achieved, 100.0);
        let mut failed = ok.clone();
        for r in failed.iter_mut().take(20) {
            r.outcome = Outcome::Busy;
        }
        let r = summarize_rate(&failed, Duration::from_secs(1));
        assert!(r.p99.value.is_infinite());
        assert!(!r.meets_limit);
        // A backlog: the last requests are sent 40 ms late.
        let mut late = ok;
        for r in late.iter_mut().skip(90) {
            r.send_ns += 40_000_000;
            r.done_ns += 40_000_000;
        }
        assert!(!summarize_rate(&late, Duration::from_secs(1)).meets_limit);
    }

    #[test]
    fn poisson_schedule_has_the_requested_rate_and_mix() {
        let t = crate::data::generate(crate::data::Kind::Lsqb, 3).templates;
        let mut mix = Mix::new(&t, 3).unwrap();
        let mut rng = Rng::new(4);
        let s = poisson(&mut mix, &mut rng, 2000.0, Duration::from_secs(5)).unwrap();
        assert!((s.len() as f64 - 10_000.0).abs() < 400.0, "{}", s.len());
        assert!(s.windows(2).all(|w| w[0].0 <= w[1].0));
        let fresh = s.iter().filter(|(_, r)| r.fresh).count() as f64 / s.len() as f64;
        assert!((fresh - (1.0 - HOT_SHARE)).abs() < 0.02, "{fresh}");
        // Fresh windows are never repeated and never hot.
        let hot: HashSet<_> = mix.hot().into_iter().map(|r| (r.template, r.lo)).collect();
        let mut seen = HashSet::new();
        for (_, r) in s.iter().filter(|(_, r)| r.fresh) {
            assert!(seen.insert((r.template, r.lo)));
            assert!(!hot.contains(&(r.template, r.lo)));
        }
        // Same seed, same schedule.
        let mut mix2 = Mix::new(&t, 3).unwrap();
        let s2 = poisson(&mut mix2, &mut Rng::new(4), 2000.0, Duration::from_secs(5)).unwrap();
        assert_eq!(s, s2);
    }

    #[test]
    fn an_exhausted_mix_is_an_error_and_released_windows_come_back() {
        let mut t = crate::data::generate(crate::data::Kind::Lsqb, 3).templates;
        t.truncate(1);
        // 40 window starts: six hot, the rest fresh until they run out.
        t[0].domain = t[0].width + 39;
        let mut mix = Mix::new(&t, 5).unwrap();
        let mut fresh = Vec::new();
        let err = loop {
            match mix.next() {
                Ok(r) if r.fresh => fresh.push(r),
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        assert_eq!(fresh.len(), 40 - HOT_PER_TEMPLATE);
        assert!(err.contains("ran out of unseen windows"), "{err}");
        mix.release(fresh[..3].iter().copied());
        let mut back = Vec::new();
        while back.len() < 3 {
            let r = mix.next().unwrap();
            if r.fresh {
                back.push((r.template, r.lo));
            }
        }
        back.sort_unstable();
        let mut want: Vec<_> = fresh[..3].iter().map(|r| (r.template, r.lo)).collect();
        want.sort_unstable();
        assert_eq!(back, want);
    }

    #[test]
    fn served_ref_x_weighs_each_class_alike() {
        // Template 0 hot: round trips 2 ms against 1 ms references (ratio 2),
        // nine of them; template 0 fresh: one request at ratio 8. The median
        // over all requests would read 2; per class it is sqrt(2 * 8) = 4.
        let mut records = Vec::new();
        let mut refs = Vec::new();
        for i in 0..10u64 {
            let fresh = i == 9;
            let mut r = rec(0, 0, i * 10_000_000, i * 10_000_000 + 2_000_000);
            r.req.fresh = fresh;
            records.push(r);
            refs.push(if fresh { 0.25 } else { 1.0 });
        }
        assert!((served_ref_x(&records, &refs) - 4.0).abs() < 1e-9);
        // A failed request is left out, a slower machine cancels out.
        records[0].outcome = Outcome::Busy;
        let slower: Vec<Record> = records
            .iter()
            .map(|r| Record { done_ns: r.send_ns + 2 * (r.done_ns - r.send_ns), ..r.clone() })
            .collect();
        let slower_refs: Vec<f64> = refs.iter().map(|x| 2.0 * x).collect();
        assert!((served_ref_x(&slower, &slower_refs) - 4.0).abs() < 1e-9);
    }
}
