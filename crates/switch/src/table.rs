//! Exact-match match-action tables.
//!
//! A match-action table maps a key (here: up to 64 bits of header/metadata)
//! to action data. Rules are installed by the control plane at query-setup
//! time; the paper reports each query needs 10–20 rules and installation
//! completes in under a millisecond. The table counts its rules so the
//! planner can reproduce that claim.

use std::collections::HashMap;

/// An exact-match match-action table.
///
/// `A` is the action-data type — typically a small copyable struct or an
/// integer (e.g. a truth-table output bit for the filtering query).
#[derive(Debug, Clone)]
pub struct ExactTable<A> {
    name: &'static str,
    rules: HashMap<u64, A>,
    default_action: Option<A>,
}

impl<A: Clone> ExactTable<A> {
    /// Create an empty table.
    pub fn new(name: &'static str) -> Self {
        Self { name, rules: HashMap::new(), default_action: None }
    }

    /// Table name (for resource reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Install (or overwrite) a rule. Returns whether the key was new.
    pub fn install(&mut self, key: u64, action: A) -> bool {
        self.rules.insert(key, action).is_none()
    }

    /// Set the default action taken on a miss.
    pub fn set_default(&mut self, action: A) {
        self.default_action = Some(action);
    }

    /// Remove a rule.
    pub fn remove(&mut self, key: u64) -> bool {
        self.rules.remove(&key).is_some()
    }

    /// Clear all rules (query teardown).
    pub fn clear(&mut self) {
        self.rules.clear();
        self.default_action = None;
    }

    /// Number of installed rules (excludes the default action).
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Look up a key; falls back to the default action on a miss.
    pub fn lookup(&self, key: u64) -> Option<&A> {
        self.rules.get(&key).or(self.default_action.as_ref())
    }

    /// Look up a key, ignoring the default action.
    pub fn lookup_exact(&self, key: u64) -> Option<&A> {
        self.rules.get(&key)
    }

    /// Control-plane time to install the current rule set, given the
    /// per-rule latency of the switch profile.
    pub fn install_time(&self, rule_install_micros: u64) -> std::time::Duration {
        std::time::Duration::from_micros(rule_install_micros * self.rules.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_and_lookup() {
        let mut t = ExactTable::new("truth");
        assert!(t.install(0b101, 1u8));
        assert!(!t.install(0b101, 0u8), "overwrite is not a new rule");
        assert_eq!(t.lookup(0b101), Some(&0));
        assert_eq!(t.lookup(0b111), None);
    }

    #[test]
    fn default_action_on_miss() {
        let mut t = ExactTable::new("t");
        t.set_default(9u8);
        t.install(1, 1);
        assert_eq!(t.lookup(1), Some(&1));
        assert_eq!(t.lookup(2), Some(&9));
        assert_eq!(t.lookup_exact(2), None);
    }

    #[test]
    fn rule_count_and_clear() {
        let mut t = ExactTable::new("t");
        for k in 0..15u64 {
            t.install(k, k as u8);
        }
        assert_eq!(t.rule_count(), 15);
        t.remove(3);
        assert_eq!(t.rule_count(), 14);
        t.clear();
        assert_eq!(t.rule_count(), 0);
        assert_eq!(t.lookup(0), None);
    }

    #[test]
    fn install_time_scales_with_rules() {
        let mut t = ExactTable::new("t");
        for k in 0..20u64 {
            t.install(k, ());
        }
        // 20 rules at 40µs each = 800µs — under the paper's 1 ms claim.
        let d = t.install_time(40);
        assert_eq!(d, std::time::Duration::from_micros(800));
        assert!(d < std::time::Duration::from_millis(1));
    }
}
