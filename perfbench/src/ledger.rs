//! The winner ledger: the paper's safety property, checked on what the
//! layer under test answered.
//!
//! Every verdict carries the key-epoch it took part in (from the verdict
//! itself when the layer reports one) and every `RESET` ack names the
//! epoch it retired and the one it opened. A run is correct only if each
//! resolved key-epoch saw exactly the expected participants, exactly one
//! winner, and exactly one ack that moved it to the next epoch.

use std::collections::HashMap;

/// One test-and-set answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    pub key: u32,
    pub epoch: u64,
    pub won: bool,
}

/// One `RESET` ack: the epoch retired and the epoch opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    pub key: u32,
    pub from: u64,
    pub to: u64,
}

/// Check `verdicts` and `acks` against the one-winner rule with
/// `participants` callers per key-epoch. Returns the number of resolved
/// key-epochs, or the first failed check by name.
pub fn check(verdicts: &[Verdict], acks: &[Ack], participants: usize) -> Result<u64, String> {
    #[derive(Default)]
    struct Epoch {
        callers: usize,
        winners: usize,
        acks: usize,
    }
    let mut epochs: HashMap<(u32, u64), Epoch> = HashMap::with_capacity(acks.len());
    for v in verdicts {
        let e = epochs.entry((v.key, v.epoch)).or_default();
        e.callers += 1;
        e.winners += usize::from(v.won);
    }
    for a in acks {
        if a.to != a.from + 1 {
            return Err(format!(
                "ledger.ack_order: key {} ack retired epoch {} but opened {}",
                a.key, a.from, a.to
            ));
        }
        match epochs.get_mut(&(a.key, a.from)) {
            Some(e) => e.acks += 1,
            None => {
                return Err(format!(
                    "ledger.ack_without_verdicts: key {} epoch {} was acked but never answered",
                    a.key, a.from
                ))
            }
        }
    }
    let mut bad: Vec<_> = epochs
        .iter()
        .filter(|(_, e)| e.winners != 1 || e.callers != participants || e.acks != 1)
        .collect();
    bad.sort_by_key(|(k, _)| **k);
    match bad.first() {
        None => Ok(epochs.len() as u64),
        Some(((key, epoch), e)) => {
            let check = if e.winners != 1 {
                "ledger.one_winner"
            } else if e.callers != participants {
                "ledger.participants"
            } else {
                "ledger.one_ack"
            };
            Err(format!(
                "{check}: key {key} epoch {epoch} had {} winners among {} callers \
                 (expected 1 among {participants}) and {} acks; {} bad key-epochs",
                e.winners,
                e.callers,
                e.acks,
                bad.len()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(key: u32, epoch: u64, won: bool) -> Verdict {
        Verdict { key, epoch, won }
    }

    fn ack(key: u32, from: u64) -> Ack {
        Ack {
            key,
            from,
            to: from + 1,
        }
    }

    #[test]
    fn clean_ledger_passes() {
        let verdicts = [
            v(0, 0, true),
            v(0, 0, false),
            v(0, 1, false),
            v(0, 1, true),
            v(3, 0, true),
            v(3, 0, false),
        ];
        let acks = [ack(0, 0), ack(0, 1), ack(3, 0)];
        assert_eq!(check(&verdicts, &acks, 2), Ok(3));
    }

    #[test]
    fn fabricated_double_win_fails() {
        let verdicts = [v(0, 0, true), v(0, 0, false), v(0, 1, true), v(0, 1, true)];
        let acks = [ack(0, 0), ack(0, 1)];
        let err = check(&verdicts, &acks, 2).unwrap_err();
        assert!(err.starts_with("ledger.one_winner"), "{err}");
        assert!(err.contains("epoch 1 had 2 winners"), "{err}");
    }

    #[test]
    fn no_winner_fails() {
        let err = check(&[v(1, 4, false)], &[ack(1, 4)], 1).unwrap_err();
        assert!(err.starts_with("ledger.one_winner"), "{err}");
    }

    #[test]
    fn missing_or_extra_participants_fail() {
        let err = check(&[v(1, 0, true)], &[ack(1, 0)], 2).unwrap_err();
        assert!(err.starts_with("ledger.participants"), "{err}");
    }

    #[test]
    fn unacked_double_acked_or_misordered_epochs_fail() {
        let verdicts = [v(2, 0, true)];
        assert!(check(&verdicts, &[], 1)
            .unwrap_err()
            .starts_with("ledger.one_ack"));
        assert!(check(&verdicts, &[ack(2, 0), ack(2, 0)], 1)
            .unwrap_err()
            .starts_with("ledger.one_ack"));
        let skipped = Ack {
            key: 2,
            from: 0,
            to: 2,
        };
        assert!(check(&verdicts, &[skipped], 1)
            .unwrap_err()
            .starts_with("ledger.ack_order"));
        assert!(check(&verdicts, &[ack(2, 0), ack(2, 5)], 1)
            .unwrap_err()
            .starts_with("ledger.ack_without_verdicts"));
    }
}
