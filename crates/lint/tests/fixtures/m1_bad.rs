//! M1 positive fixture: nogood-store queries with no metering in sight.

pub fn consistent(&self, var: u32, val: i64) -> bool {
    for ng in self.store.for_variable(var) {
        if ng.binds(var, val) {
            return false;
        }
    }
    true
}

pub fn filter_unmetered(&self, val: i64) -> Vec<usize> {
    self.tracker.violated_higher(val).collect()
}

pub fn count_unmetered(&self, val: i64) -> usize {
    self.tracker.lower_violation_count(val)
}

pub fn cost_unmetered(&self, val: i64) -> u64 {
    self.tracker.violated_with(val).map(|i| self.weights[i]).sum()
}
