//! Digests pinned at the default seed.
//!
//! Every digest is the FNV-1a fold the program itself reports: the trace
//! digest of one run (`steady`, each `trace` seed) or the campaign digest
//! `urb-chaos` prints. Seeds 7 and 11 of `trace` are the repository's
//! pinned `urb-trace record` digests. Away from [`DEFAULT_SEED`] nothing
//! is pinned and each repetition is checked against the first instead.

/// The seed the pins hold for.
pub const DEFAULT_SEED: u64 = 7;

/// `steady` at the default seed.
const STEADY: u64 = 0xd5bb_02df_6742_9965;
/// `urb-chaos --seed 7 --runs 8 --strict`.
const CLASSIC: u64 = 0x0248_25f9_ac2c_65c7;
/// `urb-chaos netstate --seed 7 --runs 8 --strict`.
const NETSTATE: u64 = 0x62d5_dece_4fce_2be8;
/// `urb-trace record --seed s` for s = 7, 8, …, 14.
const TRACE: [u64; crate::measure::TRACE_SEEDS as usize] = [
    0xe68d_dcae_494f_97d4,
    0xa96e_fb62_5c7d_a639,
    0x4298_0623_4f4b_f844,
    0x241f_1d20_d691_939b,
    0xb664_1c89_8097_8708,
    0xa6c4_3764_fa80_d519,
    0xa093_036e_2963_5520,
    0x8665_efee_42e7_8f05,
];

/// Which digest a pin is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pinned {
    /// The `steady` run.
    Steady,
    /// The classic strict campaign.
    Classic,
    /// The netstate strict campaign.
    Netstate,
    /// The `trace` run at `DEFAULT_SEED + k`.
    Trace(u64),
}

/// The pin table, optionally falsified (the negative control).
#[derive(Clone, Copy, Debug, Default)]
pub struct Pins {
    /// Flip every pin, so every pinned check must fail.
    pub wrong: bool,
}

impl Pins {
    /// The pinned digest for `what` at `seed`, if there is one.
    pub fn get(&self, what: Pinned, seed: u64) -> Option<u64> {
        if seed != DEFAULT_SEED {
            return None;
        }
        let pin = match what {
            Pinned::Steady => STEADY,
            Pinned::Classic => CLASSIC,
            Pinned::Netstate => NETSTATE,
            Pinned::Trace(k) => *TRACE.get(usize::try_from(k).ok()?)?,
        };
        Some(if self.wrong { !pin } else { pin })
    }
}
