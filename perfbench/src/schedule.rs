//! Open-loop schedule: operations are due at fixed times whatever the
//! system does, and each is timed from when it was *due*, so a stall
//! charges its wait to every operation queued behind it.

use std::time::{Duration, Instant};

/// Due time of operation `i` at `rate` operations per second.
pub fn due_offset(i: u64, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// One operation's timing relative to its due time, in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DueTimed {
    /// Send time minus due time: how late the generator ran.
    pub late: f64,
    /// Completion time minus due time: the latency the caller saw.
    pub latency: f64,
}

impl DueTimed {
    pub fn new(due: Instant, sent: Instant, done: Instant) -> Self {
        Self {
            late: sent.saturating_duration_since(due).as_secs_f64(),
            latency: done.saturating_duration_since(due).as_secs_f64(),
        }
    }
}

/// Sleep until `due` unless it has already passed; returns the send time.
pub fn wait_until(due: Instant) -> Instant {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    Instant::now()
}

/// The accounting of one sequential open-loop sender, on given due and
/// service times (seconds): each operation starts at its due time or when
/// the previous one finished, whichever is later.
pub fn replay(due: &[f64], service: &[f64]) -> Vec<DueTimed> {
    let mut free_at = f64::NEG_INFINITY;
    due.iter()
        .zip(service)
        .map(|(&due, &service)| {
            let sent = due.max(free_at);
            free_at = sent + service;
            DueTimed { late: sent - due, latency: free_at - due }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_stall_makes_the_later_operations_late() {
        // Ten operations due every 10 ms, each taking 1 ms, except the
        // third, which stalls for 35 ms.
        let due: Vec<f64> = (0..10).map(|i| i as f64 * 0.010).collect();
        let mut service = vec![0.001; 10];
        service[2] = 0.035;
        let timed = replay(&due, &service);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;

        assert!(close(timed[2].late, 0.0) && close(timed[2].latency, 0.035));
        // The stall ends at 55 ms: op 3 (due 30) and op 4 (due 40) wait
        // for it, op 5 (due 50) waits for op 4, and the backlog drains
        // by op 6.
        assert!(close(timed[3].late, 0.025) && close(timed[3].latency, 0.026));
        assert!(close(timed[4].late, 0.016) && close(timed[4].latency, 0.017));
        assert!(close(timed[5].late, 0.007) && close(timed[5].latency, 0.008));
        assert!(close(timed[6].late, 0.0) && close(timed[6].latency, 0.001));
        // Timing from send instead of due would have hidden all of it.
        for t in &timed[3..6] {
            assert!(t.latency > 0.001 + 1e-6);
        }
    }

    #[test]
    fn due_offsets_follow_the_rate() {
        assert_eq!(due_offset(0, 100.0), Duration::ZERO);
        assert_eq!(due_offset(250, 100.0), Duration::from_millis(2500));
        let o = Instant::now();
        let t = DueTimed::new(o, o + Duration::from_millis(3), o + Duration::from_millis(5));
        assert!((t.late - 0.003).abs() < 1e-9 && (t.latency - 0.005).abs() < 1e-9);
    }
}
