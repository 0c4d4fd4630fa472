//! Aggregate GPU statistics.

use crate::clock::SimTime;

/// Snapshot of everything the simulated GPU has done so far. Experiments
/// take snapshots at phase boundaries and difference them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GpuStatsSnapshot {
    /// Current simulated clock.
    pub now: SimTime,
    /// Host-side kernel launches.
    pub kernels_host: u64,
    /// Device-side (dynamic parallelism) kernel launches.
    pub kernels_device: u64,
    /// Levels that continued an already running kernel behind an
    /// in-kernel dependency wait ([`crate::LaunchKind::Continue`]) — not
    /// launches, so counted in neither field above.
    pub dependency_waits: u64,
    /// Total time inside kernels.
    pub kernel_time: SimTime,
    /// Of which: serialized unified-memory fault service.
    pub fault_time: SimTime,
    /// Unified-memory fault groups (Table 3's count).
    pub fault_groups: u64,
    /// Host→device bytes moved explicitly.
    pub h2d_bytes: u64,
    /// Device→host bytes moved explicitly.
    pub d2h_bytes: u64,
    /// Time spent in explicit transfers.
    pub xfer_time: SimTime,
    /// Time spent in explicit UM prefetches.
    pub prefetch_time: SimTime,
    /// Injected allocation failures (fault plan).
    pub injected_oom: u64,
    /// Injected kernel-launch failures (fault plan).
    pub injected_launch_faults: u64,
    /// Injected capacity squeezes applied (fault plan).
    pub injected_squeezes: u64,
    /// Injected crashes fired (fault plan `crash:at=N`).
    pub injected_crashes: u64,
    /// Crash points passed so far — the number of sites an injected crash
    /// could have fired at. A chaos suite reads this off a clean run to
    /// enumerate every ordinal worth targeting.
    pub crash_points: u64,
}

impl GpuStatsSnapshot {
    /// Component-wise difference `self - earlier` (for phase accounting).
    ///
    /// Saturating on every field: an out-of-order pair (snapshots from
    /// different phases, or swapped arguments) yields zeros instead of a
    /// debug-build overflow panic.
    pub fn since(&self, earlier: &GpuStatsSnapshot) -> GpuStatsSnapshot {
        GpuStatsSnapshot {
            now: self.now.saturating_sub(earlier.now),
            kernels_host: self.kernels_host.saturating_sub(earlier.kernels_host),
            kernels_device: self.kernels_device.saturating_sub(earlier.kernels_device),
            dependency_waits: self
                .dependency_waits
                .saturating_sub(earlier.dependency_waits),
            kernel_time: self.kernel_time.saturating_sub(earlier.kernel_time),
            fault_time: self.fault_time.saturating_sub(earlier.fault_time),
            fault_groups: self.fault_groups.saturating_sub(earlier.fault_groups),
            h2d_bytes: self.h2d_bytes.saturating_sub(earlier.h2d_bytes),
            d2h_bytes: self.d2h_bytes.saturating_sub(earlier.d2h_bytes),
            xfer_time: self.xfer_time.saturating_sub(earlier.xfer_time),
            prefetch_time: self.prefetch_time.saturating_sub(earlier.prefetch_time),
            injected_oom: self.injected_oom.saturating_sub(earlier.injected_oom),
            injected_launch_faults: self
                .injected_launch_faults
                .saturating_sub(earlier.injected_launch_faults),
            injected_squeezes: self
                .injected_squeezes
                .saturating_sub(earlier.injected_squeezes),
            injected_crashes: self
                .injected_crashes
                .saturating_sub(earlier.injected_crashes),
            crash_points: self.crash_points.saturating_sub(earlier.crash_points),
        }
    }

    /// Total injected faults of every kind (fault plan).
    pub fn injected_faults(&self) -> u64 {
        self.injected_oom + self.injected_launch_faults + self.injected_squeezes
    }

    /// Fraction of elapsed time spent servicing page faults — the metric of
    /// the paper's Table 3 ("pc." columns).
    pub fn fault_time_fraction(&self) -> f64 {
        if self.now.as_ns() == 0.0 {
            0.0
        } else {
            self.fault_time.as_ns() / self.now.as_ns()
        }
    }

    /// Fraction of elapsed time spent on explicit data movement (the
    /// out-of-core implementation's analog of fault overhead; Table 3's
    /// "pc. ooc" column).
    pub fn xfer_time_fraction(&self) -> f64 {
        if self.now.as_ns() == 0.0 {
            0.0
        } else {
            self.xfer_time.as_ns() / self.now.as_ns()
        }
    }
}

/// Component-wise sum, for totalling several devices' deltas of one
/// phase: counts, bytes and times add up, and so does `now` (device time),
/// so the fractions above stay shares of the summed elapsed time.
impl std::ops::Add for GpuStatsSnapshot {
    type Output = GpuStatsSnapshot;

    fn add(self, o: GpuStatsSnapshot) -> GpuStatsSnapshot {
        GpuStatsSnapshot {
            now: self.now + o.now,
            kernels_host: self.kernels_host + o.kernels_host,
            kernels_device: self.kernels_device + o.kernels_device,
            dependency_waits: self.dependency_waits + o.dependency_waits,
            kernel_time: self.kernel_time + o.kernel_time,
            fault_time: self.fault_time + o.fault_time,
            fault_groups: self.fault_groups + o.fault_groups,
            h2d_bytes: self.h2d_bytes + o.h2d_bytes,
            d2h_bytes: self.d2h_bytes + o.d2h_bytes,
            xfer_time: self.xfer_time + o.xfer_time,
            prefetch_time: self.prefetch_time + o.prefetch_time,
            injected_oom: self.injected_oom + o.injected_oom,
            injected_launch_faults: self.injected_launch_faults + o.injected_launch_faults,
            injected_squeezes: self.injected_squeezes + o.injected_squeezes,
            injected_crashes: self.injected_crashes + o.injected_crashes,
            crash_points: self.crash_points + o.crash_points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_componentwise() {
        let early = GpuStatsSnapshot {
            now: SimTime::from_ns(100.0),
            kernels_host: 2,
            fault_groups: 5,
            ..Default::default()
        };
        let late = GpuStatsSnapshot {
            now: SimTime::from_ns(350.0),
            kernels_host: 7,
            fault_groups: 11,
            ..Default::default()
        };
        let d = late.since(&early);
        assert_eq!(d.now.as_ns(), 250.0);
        assert_eq!(d.kernels_host, 5);
        assert_eq!(d.fault_groups, 6);
    }

    #[test]
    fn since_saturates_on_out_of_order_pairs() {
        let early = GpuStatsSnapshot {
            now: SimTime::from_ns(100.0),
            kernels_host: 2,
            fault_groups: 5,
            h2d_bytes: 64,
            ..Default::default()
        };
        let late = GpuStatsSnapshot {
            now: SimTime::from_ns(350.0),
            kernels_host: 7,
            fault_groups: 11,
            h2d_bytes: 512,
            ..Default::default()
        };
        // Swapped arguments: every field clamps to zero, no panic.
        let d = early.since(&late);
        assert_eq!(d, GpuStatsSnapshot::default());
        assert_eq!(d.now.as_ns(), 0.0);
    }

    #[test]
    fn fractions_guard_zero_elapsed() {
        let z = GpuStatsSnapshot::default();
        assert_eq!(z.fault_time_fraction(), 0.0);
        assert_eq!(z.xfer_time_fraction(), 0.0);
    }

    #[test]
    fn fault_fraction_math() {
        let s = GpuStatsSnapshot {
            now: SimTime::from_us(10.0),
            fault_time: SimTime::from_us(4.0),
            ..Default::default()
        };
        assert!((s.fault_time_fraction() - 0.4).abs() < 1e-12);
    }
}
