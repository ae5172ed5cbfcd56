//! The traced run's in-memory span list.
//!
//! The harness records one span around every client call and one around
//! every direct call into a layer; the spans `spq-obs` already emits inside
//! the server are folded under the request span they fall into. A span's
//! self time is its duration minus the part of it its children cover. The
//! list is written as chrome-trace JSON when the run ends.

use spq_service::json::Json;
use std::time::Instant;

/// Where a span came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// A client call over TCP (the request span).
    Wire,
    /// An `spq-obs` span emitted inside the server while serving a request.
    Obs,
    /// A direct call into a layer's public function, replaying a request.
    Probe,
}

impl Origin {
    fn category(self) -> &'static str {
        match self {
            Origin::Wire => "wire",
            Origin::Obs => "spq-obs",
            Origin::Probe => "probe",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub origin: Origin,
    /// Microseconds since the trace's epoch.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Index of the request (in replay order) the span belongs to.
    pub request: usize,
    /// Thread lane in the chrome trace.
    pub lane: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// The span list of one traced run.
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

/// Layer groups of the per-workload share table, in catalogue order
/// (`share.<group>`).
pub const GROUPS: [&str; 6] = [
    "net_service",
    "instance",
    "scenario",
    "search_solver",
    "validation",
    "sketch",
];

/// The layer group a span's self time is charged to. The request span's
/// self time is everything outside the evaluator: wire, queue, prepared
/// lookup or compile, encode. `solve` wraps `Instance::new` plus the
/// algorithm, so its self time is instance preparation; `csa_solve` wraps
/// summary construction plus the MILP, which are not separable from outside.
fn group_of(span: &Span) -> &'static str {
    match (span.origin, span.name.as_str()) {
        (Origin::Wire, _) => "net_service",
        (_, "solve") => "instance",
        (_, "scenarios") => "scenario",
        (_, "milp" | "csa_solve" | "formulate") => "search_solver",
        (_, "validate") => "validation",
        (_, "partition" | "sketch" | "refine") => "sketch",
        _ => "net_service",
    }
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Record a finished span; returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Time `f` as a probe span named `name` under `parent`.
    pub fn probe<T>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let start_us = self.now_us();
        let value = f();
        let end_us = self.now_us();
        let request = self.spans[parent].request;
        self.push(Span {
            name: name.to_string(),
            origin: Origin::Probe,
            start_us,
            end_us,
            parent: Some(parent),
            request,
            lane: 0,
        });
        (value, (end_us - start_us) / 1e3)
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals, each clipped to the span itself (children may
    /// overlap one another or stick out).
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut covered: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start_us.max(parent.start_us), s.end_us.min(parent.end_us));
                if b > a {
                    covered[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(span, mut covered)| {
                covered.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut union = 0.0;
                let mut reach = f64::NEG_INFINITY;
                for (a, b) in covered {
                    if b > reach {
                        union += b - a.max(reach);
                        reach = b;
                    }
                }
                (span.duration_us() - union).max(0.0)
            })
            .collect()
    }

    /// Fold `spq-obs` events (name, start, duration, thread; microseconds on
    /// the trace's clock) under the request spans: an event belongs to the
    /// request whose interval contains its midpoint (requests are replayed
    /// one at a time), and its parent is the innermost enclosing event of
    /// the same thread, else the request span.
    pub fn fold_obs(&mut self, mut events: Vec<(String, f64, f64, u64)>) {
        let requests: Vec<(usize, f64, f64, usize)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.origin == Origin::Wire)
            .map(|(i, s)| (i, s.start_us, s.end_us, s.request))
            .collect();
        // Outer spans first: by thread, start ascending, longer first.
        events.sort_by(|a, b| {
            (a.3, a.1)
                .partial_cmp(&(b.3, b.1))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.2.total_cmp(&a.2))
        });
        let mut stack: Vec<usize> = Vec::new();
        let mut lane = u64::MAX;
        for (name, start, dur, tid) in events {
            let mid = start + dur / 2.0;
            let Some(&(wire, _, _, request)) =
                requests.iter().find(|(_, a, b, _)| *a <= mid && mid <= *b)
            else {
                continue;
            };
            if tid != lane {
                stack.clear();
                lane = tid;
            }
            while let Some(&top) = stack.last() {
                let t = &self.spans[top];
                if t.request == request && t.start_us <= start && start + dur <= t.end_us + 1e-3 {
                    break;
                }
                stack.pop();
            }
            let parent = stack.last().copied().unwrap_or(wire);
            let index = self.push(Span {
                name,
                origin: Origin::Obs,
                start_us: start,
                end_us: start + dur,
                parent: Some(parent),
                request,
                lane: tid,
            });
            stack.push(index);
        }
    }

    /// Share of traced request time per layer group: self times of the
    /// request spans and everything folded under them, summed per group and
    /// divided by the total request time. In [`GROUPS`] order; sums to 1.
    pub fn layer_shares(&self) -> Vec<(&'static str, f64)> {
        let total: f64 = self
            .spans
            .iter()
            .filter(|s| s.origin == Origin::Wire)
            .map(Span::duration_us)
            .sum();
        let self_us = self.self_times_us();
        GROUPS
            .iter()
            .map(|&group| {
                let us = self
                    .spans
                    .iter()
                    .zip(&self_us)
                    .filter(|(s, _)| s.origin != Origin::Probe && group_of(s) == group)
                    .fold(0.0, |acc, (_, us)| acc + us);
                (group, if total > 0.0 { us / total } else { 0.0 })
            })
            .collect()
    }

    /// Total duration of the `spq-obs` spans named `name` inside request
    /// `request`, in milliseconds.
    pub fn obs_ms(&self, request: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.origin == Origin::Obs && s.request == request && s.name == name)
            .map(Span::duration_us)
            .sum::<f64>()
            / 1e3
    }

    /// The whole list as chrome-trace JSON ("complete" events; load in
    /// `chrome://tracing` or Perfetto). `args` carries the span's index,
    /// its parent's index and its request.
    pub fn to_chrome_json(&self) -> String {
        let self_us = self.self_times_us();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let event = Json::Obj(vec![
                ("name".to_string(), Json::from(s.name.as_str())),
                ("cat".to_string(), Json::from(s.origin.category())),
                ("ph".to_string(), Json::from("X")),
                ("ts".to_string(), Json::from(s.start_us)),
                ("dur".to_string(), Json::from(s.duration_us())),
                ("pid".to_string(), Json::from(1usize)),
                // Probes replay a request after the fact; keep them in a
                // lane of their own below the wire and server lanes.
                (
                    "tid".to_string(),
                    Json::from(match s.origin {
                        Origin::Wire => 0,
                        Origin::Obs => s.lane,
                        Origin::Probe => 1_000,
                    }),
                ),
                (
                    "args".to_string(),
                    Json::Obj(vec![
                        ("span".to_string(), Json::from(i)),
                        (
                            "parent".to_string(),
                            s.parent.map(Json::from).unwrap_or(Json::Null),
                        ),
                        ("request".to_string(), Json::from(s.request)),
                        ("self_us".to_string(), Json::from(self_us[i])),
                    ]),
                ),
            ]);
            out.push_str(&event.to_string());
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, origin: Origin, a: f64, b: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            origin,
            start_us: a,
            end_us: b,
            parent,
            request: 0,
            lane: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let mut t = Trace::new();
        let root = t.push(span("request", Origin::Wire, 0.0, 100.0, None));
        // Two overlapping children cover [10, 50]; one sticks out past the
        // parent's end and is clipped to [90, 100]; one is disjoint.
        let a = t.push(span("a", Origin::Obs, 10.0, 40.0, Some(root)));
        t.push(span("b", Origin::Obs, 30.0, 50.0, Some(root)));
        t.push(span("c", Origin::Obs, 90.0, 130.0, Some(root)));
        t.push(span("d", Origin::Obs, 60.0, 70.0, Some(root)));
        // A grandchild only reduces its own parent's self time.
        t.push(span("a1", Origin::Obs, 15.0, 25.0, Some(a)));
        let self_us = t.self_times_us();
        assert_eq!(self_us[root], 100.0 - 40.0 - 10.0 - 10.0);
        assert_eq!(self_us[a], 20.0);
        // A child that lies wholly outside covers nothing.
        let lone = t.push(span("lone", Origin::Wire, 200.0, 210.0, None));
        t.push(span("stray", Origin::Obs, 300.0, 310.0, Some(lone)));
        assert_eq!(t.self_times_us()[lone], 10.0);
    }

    #[test]
    fn obs_events_nest_by_containment_and_shares_sum_to_one() {
        let mut t = Trace::new();
        let mut r0 = span("request", Origin::Wire, 0.0, 100.0, None);
        r0.request = 0;
        let mut r1 = span("request", Origin::Wire, 200.0, 260.0, None);
        r1.request = 1;
        t.push(r0);
        t.push(r1);
        t.fold_obs(vec![
            ("validate".into(), 50.0, 30.0, 7),
            ("solve".into(), 10.0, 80.0, 7),
            ("csa_solve".into(), 20.0, 65.0, 7),
            ("scenarios".into(), 12.0, 6.0, 7),
            ("solve".into(), 210.0, 40.0, 8),
            ("outside".into(), 150.0, 10.0, 7),
        ]);
        let by_name = |name: &str, request: usize| {
            t.spans
                .iter()
                .position(|s| s.name == name && s.request == request && s.origin == Origin::Obs)
                .unwrap()
        };
        let solve0 = by_name("solve", 0);
        assert_eq!(t.spans[solve0].parent, Some(0));
        assert_eq!(t.spans[by_name("csa_solve", 0)].parent, Some(solve0));
        assert_eq!(
            t.spans[by_name("validate", 0)].parent,
            Some(by_name("csa_solve", 0))
        );
        assert_eq!(t.spans[by_name("scenarios", 0)].parent, Some(solve0));
        assert_eq!(t.spans[by_name("solve", 1)].parent, Some(1));
        assert!(t.spans.iter().all(|s| s.name != "outside"));
        assert_eq!(t.obs_ms(0, "validate"), 0.03);

        let shares = t.layer_shares();
        let sum: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-9, "{shares:?}");
        let share = |g: &str| shares.iter().find(|(n, _)| *n == g).unwrap().1;
        // 160 us of requests: wire self 20 + 20, solve self 9 + 40,
        // scenarios 6, csa_solve self 35, validate 30.
        assert!((share("net_service") - 40.0 / 160.0).abs() < 1e-9);
        assert!((share("instance") - 49.0 / 160.0).abs() < 1e-9);
        assert!((share("validation") - 30.0 / 160.0).abs() < 1e-9);
        assert!((share("search_solver") - 35.0 / 160.0).abs() < 1e-9);

        let json = spq_service::json::parse(&t.to_chrome_json()).expect("chrome trace parses");
        let events = json.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), t.spans.len());
    }
}
