//! The replicated log's rules as a pure state machine: what a node may
//! append, acknowledge, commit, apply, truncate and evict. Each rule is
//! one method of [`Log`] that returns what follows from it; `node.rs`
//! does the I/O and calls these under its state lock.

use bf_net::proto::RESERVED_REQUEST_ID_BASE;
use bf_net::{WireError, WireLogEntry, WireLogOp};
use std::collections::HashMap;

/// Max log entries per `Replicate` frame.
pub(crate) const BATCH: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    Leader,
    Follower,
}

/// What a follower does with a `Replicate` frame or a `LogDiverged`.
#[derive(Debug, PartialEq)]
pub(crate) enum Receive {
    /// Take nothing and end the link; the follower resubscribes.
    Drop,
    /// The leader contradicts a quorum-durable entry: a stale node was
    /// promoted, and halting beats serving a forked ledger.
    Halt,
    /// Durably cut the log to `truncate`, if set, then append `entries`.
    Append {
        truncate: Option<u64>,
        entries: Vec<WireLogEntry>,
    },
}

/// A node's replication state.
#[derive(Debug)]
pub(crate) struct Log {
    pub(crate) role: Role,
    pub(crate) epoch: u64,
    /// Index of `entries[0]`: those below are applied and evicted (the
    /// WAL keeps them).
    pub(crate) log_start: u64,
    pub(crate) entries: Vec<WireLogEntry>,
    /// Epoch of the last entry ever logged, so the largest any carries;
    /// survives the entry's eviction, for the catchup's log matching.
    pub(crate) last_epoch: u64,
    /// Largest index whose `Replicated` record is fsync-durable here.
    pub(crate) durable: u64,
    pub(crate) commit_index: u64,
    pub(crate) applied: u64,
    /// Durable high-water mark per connected follower (by conn id).
    pub(crate) follower_acks: HashMap<u64, u64>,
    quorum: usize,
    log_retain: u64,
}

impl Log {
    /// A follower's log as recovery finds it: `applied` entries executed,
    /// durable `pending` ones above them, `epoch` the largest on disk.
    /// Commit starts at `applied`: quorum knowledge is not durable.
    pub(crate) fn new(
        applied: u64,
        epoch: u64,
        pending: Vec<WireLogEntry>,
        quorum: usize,
        log_retain: u64,
    ) -> Log {
        Log {
            role: Role::Follower,
            epoch,
            log_start: applied + 1,
            durable: applied + pending.len() as u64,
            last_epoch: pending.last().map_or(epoch, |e| e.epoch),
            entries: pending,
            commit_index: applied,
            applied,
            follower_acks: HashMap::new(),
            quorum: quorum.max(1),
            log_retain: log_retain.max(1),
        }
    }

    /// Largest log index, durable or in its fsync (0 when the log is empty).
    pub(crate) fn high_water(&self) -> u64 {
        self.log_start + self.entries.len() as u64 - 1
    }

    pub(crate) fn entry_at(&self, index: u64) -> Option<&WireLogEntry> {
        let i = index.checked_sub(self.log_start)?;
        self.entries.get(i as usize)
    }

    /// The leader's next entry, stamped `(epoch, index)`. Without a client
    /// idempotency key it gets one from the log position, in the reserved
    /// range the wire refuses to clients: every replica executes it under
    /// the same tag.
    pub(crate) fn stamp(
        &self,
        analyst: &str,
        request_id: Option<u64>,
        op: WireLogOp,
    ) -> WireLogEntry {
        let index = self.high_water() + 1;
        let request_id = request_id.unwrap_or(RESERVED_REQUEST_ID_BASE | index);
        let (epoch, analyst) = (self.epoch, analyst.to_string());
        WireLogEntry {
            epoch,
            index,
            analyst,
            request_id,
            op,
        }
    }

    /// Takes `entries` in as their fsync starts: shippable, not durable.
    pub(crate) fn append(&mut self, entries: Vec<WireLogEntry>) {
        self.last_epoch = entries.last().map_or(self.last_epoch, |e| e.epoch);
        self.entries.extend(entries);
    }

    /// The fsync of everything up to `index` returned.
    pub(crate) fn synced(&mut self, index: u64) {
        self.durable = self.durable.max(index);
    }

    /// The commit rule (Ongaro, "Consensus", §10.2.1): a leader commits
    /// the quorum-th largest of its own *durable* index and its
    /// followers' acks — with fewer members than the quorum, nothing.
    /// Returns whether the commit index moved.
    pub(crate) fn commit(&mut self) -> bool {
        let mut highs: Vec<u64> = self.follower_acks.values().copied().collect();
        highs.push(self.durable);
        highs.sort_unstable_by(|a, b| b.cmp(a));
        match highs.get(self.quorum - 1) {
            Some(&commit) if commit > self.commit_index && self.role == Role::Leader => {
                self.commit_index = commit;
                true
            }
            _ => false,
        }
    }

    /// How far the applier may run: committed, and durable *here* — at
    /// quorum 2 of 3 the followers can commit an entry first.
    pub(crate) fn frontier(&self) -> u64 {
        self.commit_index.min(self.durable)
    }

    /// Counts `index` applied and evicts applied entries past the
    /// retention window, never the newest and, on a leader, never one a
    /// connected follower has not acked.
    pub(crate) fn mark_applied(&mut self, index: u64) {
        self.applied = self.applied.max(index);
        let mut bound = self.applied.saturating_sub(self.log_retain);
        if self.role == Role::Leader {
            bound = self
                .follower_acks
                .values()
                .fold(bound, |b, &ack| b.min(ack));
        }
        if bound >= self.log_start {
            self.entries.drain(..(bound + 1 - self.log_start) as usize);
            self.log_start = bound + 1;
        }
    }

    /// Fencing: a higher epoch is adopted and deposes a leader. Returns
    /// whether it did.
    pub(crate) fn step_down(&mut self, seen_epoch: u64) -> bool {
        if seen_epoch <= self.epoch {
            return false;
        }
        self.epoch = seen_epoch;
        let deposed = self.role == Role::Leader;
        self.follow();
        deposed
    }

    /// A follower's `LogCatchup` on connection `conn`, its epoch already
    /// fenced: registers and returns its first ack, or refuses it.
    /// `NotLeader` names `leader`. A start below the retained log needs
    /// snapshot transfer, which this crate lacks. The log-matching check
    /// (the Raft consistency argument): a follower ahead of this log, or
    /// whose entry below `from_index` carries another epoch, holds an
    /// orphan suffix of a dead epoch, which must not count to a quorum.
    pub(crate) fn subscribe(
        &mut self,
        conn: u64,
        from_index: u64,
        last_epoch: u64,
        leader: &str,
    ) -> Result<u64, WireError> {
        let hw = self.high_water();
        let prev = from_index.checked_sub(1).and_then(|i| self.entry_at(i));
        if self.role != Role::Leader {
            let leader = leader.to_string();
            Err(WireError::NotLeader { leader })
        } else if from_index < self.log_start {
            let start = self.log_start;
            let msg = format!("catchup from {from_index} predates retained log start {start}");
            Err(WireError::Protocol(msg))
        } else if from_index > hw + 1 || prev.is_some_and(|prev| prev.epoch != last_epoch) {
            Err(WireError::LogDiverged {
                leader_high_water: hw,
            })
        } else {
            self.follower_acks.insert(conn, from_index - 1);
            Ok(from_index - 1)
        }
    }

    /// A follower's cumulative ack on `conn`, clamped to this log's end:
    /// entries this node never sequenced count toward no quorum. An ack
    /// from a newer epoch counts nothing and returns `false`, to fence.
    pub(crate) fn ack(&mut self, conn: u64, epoch: u64, index: u64) -> bool {
        let hw = self.high_water();
        let fresh = epoch <= self.epoch;
        if fresh {
            let ack = self.follower_acks.entry(conn).or_insert(0);
            *ack = (*ack).max(index.min(hw));
        }
        fresh
    }

    /// The entries a leader ships a follower next, from `send_next`.
    pub(crate) fn batch(&self, send_next: u64) -> Vec<WireLogEntry> {
        let shippable = (send_next..=self.high_water()).take(BATCH);
        shippable.map_while(|i| self.entry_at(i).cloned()).collect()
    }

    /// A `Replicate` frame from `epoch`. A stale epoch's is dropped; any
    /// other raises the epoch, even if then dropped. An entry at a held
    /// index is skipped when its epoch matches, and is a dead epoch's
    /// divergent suffix when not: the log is cut below it (a leader's
    /// frame ascends, so that precedes anything fresh). A gap is dropped.
    /// The commit index follows the leader's up to the frame's end.
    pub(crate) fn receive(
        &mut self,
        epoch: u64,
        commit_index: u64,
        entries: Vec<WireLogEntry>,
    ) -> Receive {
        if epoch < self.epoch {
            return Receive::Drop;
        }
        self.epoch = self.epoch.max(epoch);
        let (mut keep, mut truncate, mut fresh) = (self.high_water(), None, Vec::new());
        for e in entries {
            let next = keep + 1 + fresh.len() as u64;
            if e.index > next {
                return Receive::Drop;
            }
            // An index the frame itself already carried counts as held.
            let held = e.index < next && e.index <= keep;
            if e.index < next
                && (!held || self.entry_at(e.index).is_none_or(|l| l.epoch == e.epoch))
            {
                continue;
            }
            if held {
                match self.cut(e.index - 1) {
                    Receive::Append { truncate: cut, .. } if fresh.is_empty() => truncate = cut,
                    Receive::Halt if fresh.is_empty() => return Receive::Halt,
                    _ => return Receive::Drop,
                }
                keep = e.index - 1;
            }
            fresh.push(e);
        }
        let last = fresh.last().map_or(keep, |e| e.index);
        self.commit_index = self.commit_index.max(commit_index.min(last));
        Receive::Append {
            truncate,
            entries: fresh,
        }
    }

    /// A `LogDiverged` refusal: everything above the commit point is
    /// suspect, so the log is cut to `min(leader high water, commit)`.
    pub(crate) fn diverged(&self, leader_high_water: u64) -> Receive {
        self.cut(leader_high_water.min(self.commit_index))
    }

    /// The truncation bound: entries up to the commit point are
    /// quorum-durable, applied or not, so a cut below it halts.
    fn cut(&self, keep: u64) -> Receive {
        if keep >= self.high_water() {
            Receive::Drop
        } else if keep < self.commit_index {
            Receive::Halt
        } else {
            Receive::Append {
                truncate: Some(keep),
                entries: Vec::new(),
            }
        }
    }

    /// Drops every entry above `keep` once its `LogTruncated` is durable.
    /// [`Log::cut`] kept `keep` at or above the commit point, so at or
    /// above `log_start - 1`.
    pub(crate) fn truncate(&mut self, keep: u64) {
        self.entries.truncate((keep + 1 - self.log_start) as usize);
        self.durable = keep;
        self.last_epoch = self.entry_at(keep).map_or(self.last_epoch, |e| e.epoch);
    }

    pub(crate) fn lead(&mut self) {
        self.role = Role::Leader;
        self.follower_acks.clear();
    }

    pub(crate) fn follow(&mut self) {
        self.role = Role::Follower;
        self.follower_acks.clear();
    }

    /// A promotion's first half: a new epoch, fencing the old, with all
    /// of this (longest surviving) log committed. It leads once applied.
    pub(crate) fn promote(&mut self) {
        self.epoch += 1;
        self.commit_index = self.commit_index.max(self.durable);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Receive::{Drop, Halt};

    fn entry(index: u64, epoch: u64) -> WireLogEntry {
        let op = WireLogOp::OpenSession { total_bits: 0 };
        let analyst = format!("n{index}");
        let request_id = RESERVED_REQUEST_ID_BASE | index;
        WireLogEntry {
            epoch,
            index,
            analyst,
            request_id,
            op,
        }
    }

    fn entries(list: &[(u64, u64)]) -> Vec<WireLogEntry> {
        list.iter()
            .map(|&(index, epoch)| entry(index, epoch))
            .collect()
    }

    /// A follower holding entries 1.. of `epochs`, all durable, committed
    /// to `commit`, nothing applied, at its last entry's epoch.
    fn log(epochs: &[u64], commit: u64, quorum: usize) -> Log {
        let mut log = Log::new(
            0,
            0,
            (1..).zip(epochs).map(|(i, &e)| entry(i, e)).collect(),
            quorum,
            9,
        );
        log.epoch = log.last_epoch;
        log.commit_index = commit;
        log
    }

    fn log_entries(epochs: &[u64]) -> Vec<WireLogEntry> {
        (1..).zip(epochs).map(|(i, &e)| entry(i, e)).collect()
    }

    fn append(truncate: Option<u64>, list: &[(u64, u64)]) -> Receive {
        Receive::Append {
            truncate,
            entries: entries(list),
        }
    }

    #[test]
    fn the_commit_is_the_quorum_th_largest_durable_index() {
        // (quorum, own entries, own durable, follower acks, commit)
        let table: [(usize, usize, u64, &[u64], u64); 6] = [
            (1, 3, 2, &[], 2),
            (2, 1, 0, &[1], 0), // shipped, not yet synced here
            (2, 3, 3, &[1], 1),
            (2, 3, 2, &[3, 1], 2),
            (2, 1, 1, &[5, 5], 1), // acks past the log count at its end
            (3, 3, 3, &[3], 0),    // two members of a quorum of three
        ];
        for (quorum, n, durable, acks, want) in table {
            let mut log = log(&vec![0; n], 0, quorum);
            (log.durable, log.role) = (durable, Role::Leader);
            for (conn, &ack) in (1..).zip(acks) {
                assert!(log.ack(conn, 0, ack));
            }
            assert_eq!(
                (log.commit(), log.commit_index),
                (want > 0, want),
                "{quorum} {acks:?}"
            );
        }
        let mut leader = log(&[0, 0], 2, 1);
        (leader.durable, leader.role) = (1, Role::Leader);
        assert!(!leader.commit(), "the commit index never moves back");
        let mut follower = log(&[0, 0], 0, 1);
        assert!(!follower.commit() && follower.commit_index == 0);
    }

    #[test]
    fn an_ack_counts_at_most_at_the_leaders_high_water() {
        let mut log = log(&[0], 0, 2);
        log.lead();
        assert_eq!(log.subscribe(1, 1, 0, ""), Ok(0));
        assert!(log.ack(1, 0, 5));
        assert_eq!(log.follower_acks[&1], 1);
        assert!(!log.ack(1, 1, 1), "a newer epoch's ack is fenced");
        assert!(log.ack(1, 0, 0), "acks are cumulative");
        assert_eq!(log.follower_acks[&1], 1);
    }

    #[test]
    fn the_applier_runs_to_the_committed_durable_index() {
        for (commit, durable, frontier) in [(2, 1, 1), (1, 2, 1), (3, 3, 3), (0, 3, 0)] {
            let mut log = log(&[0, 0, 0], commit, 1);
            log.durable = durable;
            assert_eq!(
                log.frontier(),
                frontier,
                "commit {commit}, durable {durable}"
            );
        }
    }

    /// Log matching on a leader whose entries 1–3 carry epochs 0, 0, 1.
    #[test]
    fn a_subscription_is_matched_against_the_leaders_log() {
        let diverged = Err(WireError::LogDiverged {
            leader_high_water: 3,
        });
        // (from_index, the follower's last epoch, outcome)
        let table = [
            (1, 0, Ok(0)),
            (3, 0, Ok(2)),
            (4, 1, Ok(3)),
            (4, 0, diverged.clone()), // its last entry is older than ours
            (3, 1, diverged.clone()), // its last entry is newer than ours
            (5, 1, diverged.clone()), // it is ahead of us
        ];
        for (from_index, last_epoch, want) in table {
            let mut log = log(&[0, 0, 1], 0, 2);
            log.lead();
            let got = log.subscribe(9, from_index, last_epoch, "");
            assert_eq!(got, want, "from {from_index}");
            assert_eq!(log.follower_acks.get(&9).copied(), want.ok());
        }
        let not_leader = Err(WireError::NotLeader { leader: "l".into() });
        assert_eq!(log(&[0], 0, 1).subscribe(9, 2, 0, "l"), not_leader);
        let mut evicted = Log::new(4, 0, entries(&[(5, 0)]), 1, 1);
        evicted.lead();
        assert!(matches!(
            evicted.subscribe(9, 4, 0, ""),
            Err(WireError::Protocol(_))
        ));
    }

    /// A frame from `epoch` on a follower holding `local` (the epochs of
    /// entries 1..) at epoch `at`, committed to `commit`.
    #[test]
    fn a_follower_takes_a_frame_only_where_it_matches_its_log() {
        // ((local, at, commit), (epoch, commit, frame), outcome, commit after)
        type Row = (
            (&'static [u64], u64, u64),
            (u64, u64, &'static [(u64, u64)]),
            Receive,
            u64,
        );
        #[rustfmt::skip]
        let table: [Row; 8] = [
            // fresh entries; the commit follows the leader's to the frame's end
            ((&[0, 0], 0, 0), (0, 9, &[(3, 0), (4, 0)]), append(None, &[(3, 0), (4, 0)]), 4),
            // a duplicate resend, with and without a fresh tail
            ((&[0, 0, 0], 0, 0), (0, 0, &[(2, 0), (3, 0), (4, 0)]), append(None, &[(4, 0)]), 0),
            ((&[0, 0, 0], 0, 0), (0, 0, &[(2, 0), (3, 0)]), append(None, &[]), 0),
            ((&[0], 0, 0), (0, 0, &[(3, 0)]), Drop, 0), // a gap
            ((&[1], 1, 0), (0, 0, &[(2, 0)]), Drop, 0), // a stale epoch's frame
            // a conflict above the commit point: cut below it, take the rest
            ((&[0, 0, 0, 0], 0, 0), (1, 0, &[(3, 0), (4, 1), (5, 1)]), append(Some(3), &[(4, 1), (5, 1)]), 0),
            // a conflict at the commit point, unapplied
            ((&[0, 0, 0], 0, 2), (1, 2, &[(2, 1), (3, 1)]), Halt, 2),
            // a conflict after fresh entries: not a leader's ascending frame
            ((&[0, 0], 0, 0), (1, 0, &[(3, 1), (2, 1)]), Drop, 0),
        ];
        for ((local, at, commit), (epoch, frame_commit, frame), want, commit_after) in table {
            let mut log = log(local, commit, 1);
            log.epoch = at;
            let got = log.receive(epoch, frame_commit, entries(frame));
            assert_eq!(got, want, "{local:?} {frame:?}");
            assert_eq!(log.commit_index, commit_after, "{local:?} {frame:?}");
            assert_eq!(log.epoch, at.max(epoch), "even a dropped frame raises it");
            assert_eq!(log.entries, log_entries(local), "the shell applies it");
        }
    }

    #[test]
    fn a_divergence_refusal_cuts_back_to_the_commit_point_or_halts() {
        for (leader_high_water, want) in [
            (1, Halt),
            (2, append(Some(2), &[])),
            (9, append(Some(2), &[])),
        ] {
            assert_eq!(log(&[0, 0, 0], 2, 1).diverged(leader_high_water), want);
        }
        assert_eq!(log(&[0, 0], 2, 1).diverged(9), Drop, "nothing to cut");
        let mut log = log(&[0, 0, 1], 2, 1);
        log.truncate(2);
        assert_eq!((log.high_water(), log.durable, log.last_epoch), (2, 2, 0));
        log.append(entries(&[(3, 2)]));
        assert_eq!((log.high_water(), log.durable, log.last_epoch), (3, 2, 2));
        log.synced(3);
        assert_eq!(log.durable, 3);
    }

    #[test]
    fn a_higher_epoch_deposes_a_leader_and_promotion_commits_the_durable_log() {
        let mut log = log(&[0, 0, 0], 1, 2);
        log.lead();
        log.follower_acks.insert(1, 2);
        assert!(!log.step_down(0));
        assert!(log.step_down(2));
        assert_eq!(
            (log.role, log.epoch, log.follower_acks.len()),
            (Role::Follower, 2, 0)
        );
        assert!(!log.step_down(3), "a follower adopts the epoch");
        log.durable = 2;
        log.promote();
        assert_eq!(
            (log.role, log.epoch, log.commit_index),
            (Role::Follower, 4, 2)
        );
        let next = log.stamp("a", None, WireLogOp::OpenSession { total_bits: 0 });
        assert_eq!(
            (next.epoch, next.index, next.request_id),
            (4, 4, RESERVED_REQUEST_ID_BASE | 4)
        );
        assert_eq!(log.stamp("a", Some(7), next.op).request_id, 7);
    }

    #[test]
    fn applied_entries_are_evicted_past_the_retention_window_and_the_acks() {
        let mut log = Log::new(0, 0, (1..=8).map(|i| entry(i, 0)).collect(), 1, 2);
        log.mark_applied(7);
        assert_eq!((log.applied, log.log_start, log.high_water()), (7, 6, 8));
        log.lead();
        log.follower_acks.insert(1, 6);
        log.mark_applied(8);
        assert_eq!(log.log_start, 7, "a follower still needs entry 7");
        assert_eq!((log.batch(7).len(), log.batch(9).len()), (2, 0));
        let long = Log::new(0, 0, (1..=100).map(|i| entry(i, 0)).collect(), 1, 1);
        assert_eq!(long.batch(1).len(), BATCH);
    }
}
