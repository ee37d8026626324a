//! Who runs where during a simulation: each VM's PM, and each PM's VMs
//! in the order they arrived.
//!
//! A run at paper density holds 1M VMs on 250k PMs, so this is stored
//! in 4 bytes per VM plus 8 per PM. Each PM's VMs form a singly linked
//! list threaded through a per-VM `next` array. The alternative, one
//! `Vec` per PM, costs a 24-byte header per PM plus a small heap block
//! for each PM that hosts a VM. The lists keep two invariants
//! (DESIGN.md §8, "What a paper-density run holds"):
//!
//! * **Order is arrival order.** A VM that lands joins the end of its
//!   PM's list, a VM that leaves is unlinked where it stands, and a
//!   crash detaches the whole list. Victim tie-breaking reads this
//!   order, and the checkpoint's `hosted` lists are written in it.
//! * **Length is `loads[j].count`.** The list does not store its own
//!   length: the engine's `PmLoad` already counts the PM's VMs.

/// The "no VM" link, and the host of a displaced VM.
pub(crate) const NONE: u32 = u32::MAX;

/// Each VM's PM and each PM's VMs, kept exact inverses of one another.
pub(crate) struct Members {
    /// Per VM: the PM hosting it, or [`NONE`] while it is displaced.
    host: Vec<u32>,
    /// Per VM: the VM after it on its PM's list, or [`NONE`].
    next: Vec<u32>,
    /// Per PM: the first and the last VM of its list, or [`NONE`].
    head: Vec<u32>,
    tail: Vec<u32>,
}

impl Members {
    /// `n` VMs, all displaced, and `m` empty PMs. Both counts must stay
    /// below [`NONE`].
    pub(crate) fn new(n: usize, m: usize) -> Self {
        assert!(
            n < NONE as usize && m < NONE as usize,
            "VMs and PMs are indexed with u32"
        );
        Self {
            host: vec![NONE; n],
            next: vec![NONE; n],
            head: vec![NONE; m],
            tail: vec![NONE; m],
        }
    }

    /// The members of a placement over `m` PMs: each PM lists its VMs in
    /// ascending index order, and an unplaced VM is displaced.
    pub(crate) fn from_assignment(assignment: &[Option<usize>], m: usize) -> Self {
        Self::from_hosts(assignment.iter().copied(), m)
    }

    /// [`Self::from_assignment`] over VM `i`'s host as the `i`th item of
    /// `hosts`.
    pub(crate) fn from_hosts(
        hosts: impl ExactSizeIterator<Item = Option<usize>>,
        m: usize,
    ) -> Self {
        let mut members = Self::new(hosts.len(), m);
        for (i, a) in hosts.enumerate() {
            if let Some(j) = a {
                members.land(i, j);
            }
        }
        members
    }

    /// Every VM's PM, [`NONE`] for a displaced one.
    pub(crate) fn hosts(&self) -> &[u32] {
        &self.host
    }

    /// VM `i`'s PM, `None` while it is displaced.
    #[inline]
    pub(crate) fn host(&self, i: usize) -> Option<usize> {
        let j = self.host[i];
        (j != NONE).then_some(j as usize)
    }

    /// The displaced VMs, ascending.
    pub(crate) fn displaced(&self) -> impl Iterator<Item = usize> + '_ {
        self.host
            .iter()
            .enumerate()
            .filter(|&(_, &j)| j == NONE)
            .map(|(i, _)| i)
    }

    /// PM `j`'s VMs in arrival order.
    #[inline]
    pub(crate) fn iter(&self, j: usize) -> MemberIter<'_> {
        MemberIter {
            next: &self.next,
            at: self.head[j],
        }
    }

    /// Displaced VM `i` lands on PM `j`, at the end of its list.
    pub(crate) fn land(&mut self, i: usize, j: usize) {
        debug_assert_eq!(self.host[i], NONE, "VM {i} lands while hosted");
        let v = i as u32;
        match self.tail[j] {
            NONE => self.head[j] = v,
            last => self.next[last as usize] = v,
        }
        self.tail[j] = v;
        self.next[i] = NONE;
        self.host[i] = j as u32;
    }

    /// Hosted VM `i` leaves its PM's list and is displaced; returns the
    /// PM it left. The walk to its predecessor is as long as the VMs
    /// that arrived before it.
    pub(crate) fn leave(&mut self, i: usize) -> usize {
        let j = self.host(i).expect("a leaving VM is hosted");
        let v = i as u32;
        let mut prev = NONE;
        let mut at = self.head[j];
        while at != v {
            prev = at;
            at = self.next[at as usize];
        }
        let after = self.next[i];
        match prev {
            NONE => self.head[j] = after,
            p => self.next[p as usize] = after,
        }
        if self.tail[j] == v {
            self.tail[j] = prev;
        }
        self.next[i] = NONE;
        self.host[i] = NONE;
        j
    }

    /// Detaches PM `j`'s whole list, displacing its VMs, and returns
    /// them in arrival order.
    pub(crate) fn evict_all(&mut self, j: usize) -> Vec<usize> {
        let evicted: Vec<usize> = self.iter(j).collect();
        for &i in &evicted {
            self.next[i] = NONE;
            self.host[i] = NONE;
        }
        self.head[j] = NONE;
        self.tail[j] = NONE;
        evicted
    }
}

/// The walk of one PM's list, in arrival order.
#[derive(Clone)]
pub(crate) struct MemberIter<'a> {
    next: &'a [u32],
    at: u32,
}

impl Iterator for MemberIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        (self.at != NONE).then(|| {
            let i = self.at as usize;
            self.at = self.next[i];
            i
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Checks `members` against the `Vec<Vec<usize>>` oracle: every
    /// list in the oracle's order, every host its inverse, and each
    /// list's length the PM's `count`.
    fn assert_matches(members: &Members, oracle: &[Vec<usize>], counts: &[usize]) {
        for (j, want) in oracle.iter().enumerate() {
            let got: Vec<usize> = members.iter(j).collect();
            assert_eq!(&got, want, "PM {j}'s list");
            assert_eq!(got.len(), counts[j], "PM {j}'s length against its count");
        }
        for i in 0..members.hosts().len() {
            let want = oracle.iter().position(|vs| vs.contains(&i));
            assert_eq!(members.host(i), want, "VM {i}'s host");
        }
        let displaced: Vec<usize> = members.displaced().collect();
        let want: Vec<usize> = (0..members.hosts().len())
            .filter(|i| !oracle.iter().any(|vs| vs.contains(i)))
            .collect();
        assert_eq!(displaced, want);
    }

    #[test]
    fn lists_follow_a_vec_per_pm_under_random_lands_leaves_and_crashes() {
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n, m) = (40, 6);
            let assignment: Vec<Option<usize>> = (0..n)
                .map(|_| (rng.gen_range(0..4u32) != 0).then(|| rng.gen_range(0..m)))
                .collect();
            let mut members = Members::from_assignment(&assignment, m);
            // The oracle, and per PM the count `PmLoad` would keep: one
            // more on a landing, one less on a leave, 0 on a crash.
            let mut oracle: Vec<Vec<usize>> = vec![Vec::new(); m];
            for (i, a) in assignment.iter().enumerate() {
                if let Some(j) = *a {
                    oracle[j].push(i);
                }
            }
            let mut counts: Vec<usize> = oracle.iter().map(Vec::len).collect();
            assert_matches(&members, &oracle, &counts);
            for _ in 0..300 {
                let i = rng.gen_range(0..n);
                let to = rng.gen_range(0..m);
                match (rng.gen_range(0..10u32), members.host(i)) {
                    // A crash: the whole list, in order, is displaced.
                    (0, _) => {
                        let evicted = members.evict_all(to);
                        assert_eq!(evicted, std::mem::take(&mut oracle[to]));
                        counts[to] = 0;
                    }
                    (_, None) => {
                        members.land(i, to);
                        oracle[to].push(i);
                        counts[to] += 1;
                    }
                    (1..=3, Some(from)) => {
                        assert_eq!(members.leave(i), from);
                        oracle[from].retain(|&v| v != i);
                        counts[from] -= 1;
                    }
                    (_, Some(from)) => {
                        members.leave(i);
                        members.land(i, to);
                        oracle[from].retain(|&v| v != i);
                        oracle[to].push(i);
                        counts[from] -= 1;
                        counts[to] += 1;
                    }
                }
                assert_matches(&members, &oracle, &counts);
            }
            assert!(
                oracle.iter().any(|vs| !vs.is_sorted()),
                "seed {seed}: the moves must leave some list out of index order"
            );
        }
    }
}
