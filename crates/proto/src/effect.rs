//! Replayable cross-shard protocol effects.
//!
//! The sharded machine executor (`rnuma::shard`) lets each shard drive
//! its own nodes' references concurrently within an *epoch* (one
//! contained execution window). The one protocol action a shard can take
//! against a node it does not own is the posted write-back that
//! accompanies an eviction: the victim's dirty blocks go home, and the
//! home's directory must record the voluntary write-back (that record is
//! what makes the victim's next fetch a detectable *refetch*).
//!
//! Instead of mutating the foreign directory in place — which would race
//! with the owning shard and make results depend on thread scheduling —
//! the shard buffers the directory transition as an [`EffectMsg`]. At
//! the epoch barrier the coordinator sorts all shards' buffers by the
//! canonical [`EffectKey`] order `(epoch, home node, sequence number)`
//! and applies them with [`Directory::apply`]. Because a page whose
//! footprint spans shards — or has ever been written, under the
//! executor's read-shared relaxation — is never executed inside a
//! contained window, nothing reads the deferred state before the
//! barrier, so the replay reproduces the serial execution's directory
//! bit-for-bit (see `docs/DETERMINISM.md`).

use crate::directory::Directory;
use rnuma_mem::addr::{NodeId, VBlock};

/// Canonical ordering key for cross-shard effect application.
///
/// Sorting by `(epoch, home, seq)` groups each barrier's effects by the
/// directory they target and replays same-home effects in issue order —
/// `seq` is the reference's global position in the trace, so two effects
/// against the same home apply exactly as a serial execution would have
/// applied them. Effects against *different* homes touch disjoint
/// directories and commute, which is why grouping by home first is
/// harmless and keeps the application loop cache-friendly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EffectKey {
    /// The execution window the effect was buffered in.
    pub epoch: u64,
    /// The node whose directory the effect targets.
    pub home: NodeId,
    /// Global trace sequence number of the reference that produced it.
    pub seq: u64,
}

/// A directory transition a shard must replay at a remote home.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirEffect {
    /// A voluntary (eviction) write-back of `block` from `from`: the
    /// home clears `from`'s ownership and remembers it in the
    /// `was_owner` refetch-detection mask.
    WriteBack {
        /// The block written back.
        block: VBlock,
        /// The evicting node.
        from: NodeId,
    },
}

/// One buffered cross-shard effect: the canonical key plus the
/// transition to replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EffectMsg {
    /// Where this effect sorts in the canonical application order.
    pub key: EffectKey,
    /// The directory transition to apply at `key.home`.
    pub effect: DirEffect,
}

impl Directory {
    /// Replays a buffered cross-shard effect against this directory.
    ///
    /// Must be called in canonical [`EffectKey`] order; the caller is
    /// responsible for routing the message to the directory of
    /// `key.home`.
    pub fn apply(&mut self, effect: DirEffect) {
        match effect {
            DirEffect::WriteBack { block, from } => self.writeback(block, from),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order_is_epoch_home_seq() {
        let k = |epoch, home, seq| EffectKey {
            epoch,
            home: NodeId(home),
            seq,
        };
        let mut keys = vec![k(1, 0, 9), k(0, 3, 5), k(0, 1, 7), k(0, 1, 2), k(0, 3, 1)];
        keys.sort_unstable();
        assert_eq!(
            keys,
            vec![k(0, 1, 2), k(0, 1, 7), k(0, 3, 1), k(0, 3, 5), k(1, 0, 9)]
        );
    }

    /// Epoch is the key's major component: effects of consecutive
    /// windows never interleave, no matter how `home`/`seq` compare —
    /// the invariant that makes per-window barrier draining and the
    /// pipelined executor's overlapped scans composable (a window's
    /// batch sorts identically whether or not the next window's scan
    /// already ran).
    #[test]
    fn epochs_never_interleave_in_canonical_order() {
        let k = |epoch, home, seq| EffectKey {
            epoch,
            home: NodeId(home),
            seq,
        };
        // Later epoch, but smaller home and seq everywhere.
        let mut keys = vec![k(7, 0, 0), k(6, 31, u64::MAX), k(6, 0, 3)];
        keys.sort_unstable();
        assert_eq!(keys, vec![k(6, 0, 3), k(6, 31, u64::MAX), k(7, 0, 0)]);
        assert!(keys.windows(2).all(|w| w[0].epoch <= w[1].epoch));
    }

    /// Effects from several epochs, arriving in arbitrary order (one
    /// shard's late-epoch effects ahead of another's early ones): one
    /// sort by the canonical key must reassemble the exact serial
    /// application order — epoch major, then home, then global trace
    /// position — regardless of arrival order.
    #[test]
    fn multi_span_log_consumption_reassembles_canonical_order() {
        let k = |epoch, home, seq| EffectKey {
            epoch,
            home: NodeId(home),
            seq,
        };
        // Shard A ran two spans ahead (epochs 5..=7 at home 0); shard B
        // lagged in epoch 5 (home 1). Arrival order interleaves them
        // worst-case: late-epoch effects first, seqs shuffled.
        let mut arrived = vec![
            k(7, 0, 900),
            k(5, 1, 12),
            k(6, 0, 400),
            k(5, 0, 30),
            k(5, 1, 4),
            k(5, 0, 7),
            k(6, 0, 350),
        ];
        arrived.sort_unstable();
        assert_eq!(
            arrived,
            vec![
                k(5, 0, 7),
                k(5, 0, 30),
                k(5, 1, 4),
                k(5, 1, 12),
                k(6, 0, 350),
                k(6, 0, 400),
                k(7, 0, 900),
            ]
        );
    }

    #[test]
    fn applied_writeback_matches_direct_writeback() {
        let block = VBlock(42);
        let owner = NodeId(3);
        // Direct path.
        let mut direct = Directory::new(NodeId(0));
        direct.write(block, owner, false);
        direct.writeback(block, owner);
        // Replayed path.
        let mut replayed = Directory::new(NodeId(0));
        replayed.write(block, owner, false);
        replayed.apply(DirEffect::WriteBack { block, from: owner });
        assert_eq!(direct.entry(block), replayed.entry(block));
        // Both detect the next fetch as a refetch.
        assert!(replayed.read(block, owner).refetch);
    }
}
