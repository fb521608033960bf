//! Experiment scale presets and CLI parsing.

/// Parses a thread-count override, rejecting `0` with a clear error.
///
/// Internally `threads == 0` is the "automatic" sentinel
/// (`PROMATCH_THREADS`, then available parallelism), but a user typing
/// `--threads 0` or `threads=0` almost certainly expects either an error
/// or a serial run — not a silent fallback — so the CLI layer refuses
/// it and explains how to get the automatic behavior.
///
/// # Errors
///
/// Returns a message for unparsable values and for `0`.
pub fn parse_threads(value: &str) -> Result<usize, String> {
    let n: usize = value.parse().map_err(|e| format!("threads: {e}"))?;
    if n == 0 {
        return Err(
            "threads must be at least 1 (omit the flag to use PROMATCH_THREADS or all cores)"
                .into(),
        );
    }
    Ok(n)
}

/// Parses a strictly positive integer CLI value (`--qubits`, `--shards`,
/// ...), rejecting `0` with an error naming the flag.
///
/// # Errors
///
/// Returns a message for unparsable values and for `0`.
pub fn parse_positive(flag: &str, value: &str) -> Result<u64, String> {
    let n: u64 = parse(flag, value)?;
    if n == 0 {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

/// How big an experiment run should be.
///
/// The paper evaluates d = 11, 13 with millions of samples; the presets
/// trade fidelity for turnaround:
///
/// * [`Scale::quick`] — minutes on a laptop; distances 7/9, fewer shots.
///   The decoder *ordering* is already visible at this scale.
/// * [`Scale::paper`] — distances 11/13, the paper's k ≤ 24; tens of
///   minutes, used to produce `EXPERIMENTS.md`.
#[derive(Clone, Debug, PartialEq)]
pub struct Scale {
    /// Code distances to evaluate.
    pub distances: Vec<u32>,
    /// Injection samples per k.
    pub shots_per_k: usize,
    /// Maximum injected error count (paper: 24).
    pub k_max: usize,
    /// Baseline physical error rate (paper: 1e-4).
    pub p: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Worker threads for the Eq.-1 runners (0 = `PROMATCH_THREADS` env
    /// override, then available parallelism; results are identical for
    /// any count).
    pub threads: usize,
}

impl Scale {
    /// Fast smoke-scale preset.
    pub fn quick() -> Self {
        Scale {
            distances: vec![7, 9],
            shots_per_k: 300,
            k_max: 20,
            p: 1e-4,
            seed: 2024,
            threads: 0,
        }
    }

    /// Paper-scale preset (d = 11, 13; k ≤ 24).
    pub fn paper() -> Self {
        Scale {
            distances: vec![11, 13],
            shots_per_k: 1500,
            k_max: 24,
            p: 1e-4,
            seed: 2024,
            threads: 0,
        }
    }

    /// The largest configured distance (used by single-distance
    /// experiments).
    pub fn max_distance(&self) -> u32 {
        self.distances.iter().copied().max().unwrap_or(7)
    }

    /// Parses `key=value` style overrides, e.g.
    /// `distances=11,13 shots=2000 kmax=24 p=2e-4 seed=7 threads=4`.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown keys, unparsable values, and a zero
    /// `shots` or `kmax`.
    pub fn apply_overrides(&mut self, args: &[String]) -> Result<(), String> {
        for_each_override(args, |key, value| {
            match key {
                "distances" => {
                    self.distances = value
                        .split(',')
                        .map(|s| s.trim().parse::<u32>())
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| format!("distances: {e}"))?;
                }
                "shots" => self.shots_per_k = parse_positive(key, value)? as usize,
                "kmax" => self.k_max = parse_positive(key, value)? as usize,
                "p" => self.p = parse(key, value)?,
                "seed" => self.seed = parse(key, value)?,
                "threads" => self.threads = parse_threads(value)?,
                _ => return Ok(false),
            }
            Ok(true)
        })
    }
}

/// Splits each `key=value` override and hands it to `set`, which applies
/// the keys it knows and returns `Ok(false)` for any other.
///
/// # Errors
///
/// Returns `expected key=value` for an argument without `=`, `unknown
/// option` for a key `set` refuses, and `set`'s own errors as they are.
pub(crate) fn for_each_override(
    args: &[String],
    mut set: impl FnMut(&str, &str) -> Result<bool, String>,
) -> Result<(), String> {
    for arg in args {
        let Some((key, value)) = arg.split_once('=') else {
            return Err(format!("expected key=value, got '{arg}'"));
        };
        if !set(key, value)? {
            return Err(format!("unknown option '{key}'"));
        }
    }
    Ok(())
}

/// Parses one override value, prefixing a parse error with its key.
pub(crate) fn parse<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{key}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let q = Scale::quick();
        assert!(q.shots_per_k < Scale::paper().shots_per_k);
        assert_eq!(Scale::paper().distances, vec![11, 13]);
        assert_eq!(q.max_distance(), 9);
    }

    #[test]
    fn overrides_parse() {
        let mut s = Scale::quick();
        s.apply_overrides(&[
            "distances=5,7".into(),
            "shots=42".into(),
            "kmax=12".into(),
            "p=0.0002".into(),
            "seed=99".into(),
            "threads=3".into(),
        ])
        .unwrap();
        assert_eq!(s.distances, vec![5, 7]);
        assert_eq!(s.shots_per_k, 42);
        assert_eq!(s.k_max, 12);
        assert_eq!(s.p, 2e-4);
        assert_eq!(s.seed, 99);
        assert_eq!(s.threads, 3);
    }

    #[test]
    fn bad_overrides_are_rejected() {
        let mut s = Scale::quick();
        assert!(s.apply_overrides(&["bogus=1".into()]).is_err());
        assert!(s.apply_overrides(&["shots".into()]).is_err());
        assert!(s.apply_overrides(&["shots=abc".into()]).is_err());
        for zero in ["shots=0", "kmax=0"] {
            let err = s.apply_overrides(&[zero.into()]).unwrap_err();
            assert!(err.ends_with("must be at least 1"), "{zero}: {err}");
        }
    }

    #[test]
    fn zero_threads_is_rejected_with_guidance() {
        let mut s = Scale::quick();
        let err = s.apply_overrides(&["threads=0".into()]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        assert!(err.contains("omit"), "{err}");
        // The preset's own auto sentinel is untouched.
        assert_eq!(s.threads, 0);
        assert!(parse_threads("abc").is_err());
        assert_eq!(parse_threads("3").unwrap(), 3);
    }

    #[test]
    fn positive_parser_names_the_flag() {
        assert_eq!(parse_positive("--qubits", "16").unwrap(), 16);
        let err = parse_positive("--qubits", "0").unwrap_err();
        assert!(
            err.contains("--qubits") && err.contains("at least 1"),
            "{err}"
        );
        assert!(parse_positive("--shards", "x")
            .unwrap_err()
            .contains("--shards"));
    }
}
