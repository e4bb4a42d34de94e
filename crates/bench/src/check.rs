//! Shared exit-code contract for the CI gate binaries (`tracereport`,
//! `perfscope`).
//!
//! CI needs to tell "the artifact under test failed its check" apart from
//! "the gate itself could not run" — a missing trajectory file must not
//! masquerade as a performance regression (or vice versa), so each class
//! gets its own code:
//!
//! | code | meaning |
//! |------|----------------------------------------------------|
//! | 0    | check passed |
//! | 1    | check ran and failed (invalid trace, perf regression) |
//! | 2    | an input file could not be read |
//! | 3    | bad command-line usage |

use std::process::ExitCode;

/// Check passed.
pub const OK: u8 = 0;
/// Check ran to completion and failed.
pub const CHECK_FAILED: u8 = 1;
/// An input file could not be read.
pub const UNREADABLE: u8 = 2;
/// Bad command-line usage.
pub const USAGE: u8 = 3;

/// Outcome of a gate binary, mapping onto the exit codes above.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Gate {
    /// Check passed.
    Ok,
    /// Check ran and failed; the string says why.
    CheckFailed(String),
    /// An input file could not be read; the string names it.
    Unreadable(String),
    /// Bad command-line usage; the string is the usage text.
    Usage(String),
}

impl Gate {
    /// The process exit code for this outcome.
    pub fn code(&self) -> u8 {
        match self {
            Gate::Ok => OK,
            Gate::CheckFailed(_) => CHECK_FAILED,
            Gate::Unreadable(_) => UNREADABLE,
            Gate::Usage(_) => USAGE,
        }
    }

    /// Print the outcome (stderr for failures) and convert to [`ExitCode`].
    pub fn exit(self) -> ExitCode {
        match &self {
            Gate::Ok => {}
            Gate::CheckFailed(msg) => eprintln!("check failed: {msg}"),
            Gate::Unreadable(msg) => eprintln!("unreadable input: {msg}"),
            Gate::Usage(msg) => eprintln!("{msg}"),
        }
        ExitCode::from(self.code())
    }
}

/// Read a gate input file, classifying I/O failure as [`Gate::Unreadable`].
pub fn read_input(path: &str) -> Result<String, Gate> {
    std::fs::read_to_string(path).map_err(|e| Gate::Unreadable(format!("{path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct_and_stable() {
        let all = [
            Gate::Ok,
            Gate::CheckFailed("x".into()),
            Gate::Unreadable("x".into()),
            Gate::Usage("x".into()),
        ];
        let codes: Vec<u8> = all.iter().map(Gate::code).collect();
        assert_eq!(codes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unreadable_file_is_not_a_check_failure() {
        let err = read_input("/nonexistent/ifdk-gate-input.json").unwrap_err();
        assert!(matches!(err, Gate::Unreadable(_)));
        // The distinction CI relies on: a missing file exits 2, a failed
        // check exits 1.
        assert_ne!(err.code(), Gate::CheckFailed(String::new()).code());
        assert_eq!(err.code(), UNREADABLE);
    }

    #[test]
    fn readable_file_comes_back_verbatim() {
        let dir = std::env::temp_dir();
        let path = dir.join("ifdk-check-read-input-test.json");
        std::fs::write(&path, "{\"ok\": true}").unwrap();
        let text = read_input(path.to_str().unwrap()).unwrap();
        assert_eq!(text, "{\"ok\": true}");
        let _ = std::fs::remove_file(&path);
    }
}
