//! Plain-text serialization of linked lists.
//!
//! A tiny, stable, line-oriented format so lists can be generated once
//! and fed to the CLI, diffed, or shared between runs:
//!
//! ```text
//! parmatch-list v1
//! n=<nodes> head=<head index>
//! <NEXT[0]>
//! <NEXT[1]>
//! …                       # one entry per line; "-" is nil
//! ```

use crate::check::validate;
use crate::list::{LinkedList, NodeId, NIL};

/// Errors from [`from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The first line is not the expected magic header.
    BadMagic,
    /// The `n=… head=…` line is missing or malformed.
    BadHeader(String),
    /// The header's `n` is more nodes than [`NodeId`] can address.
    TooManyNodes {
        /// The header's node count.
        n: usize,
        /// The largest addressable count.
        max: usize,
    },
    /// A `NEXT` entry failed to parse.
    BadEntry {
        /// 0-based node index of the offending line.
        index: usize,
        /// The raw line.
        line: String,
    },
    /// Fewer or more entries than `n`.
    WrongCount {
        /// Entries found.
        found: usize,
        /// Entries promised by the header.
        expected: usize,
    },
    /// The parsed structure is not a valid single chain.
    Invalid(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadMagic => write!(f, "missing 'parmatch-list v1' header"),
            ParseError::BadHeader(l) => write!(f, "malformed header line: {l:?}"),
            ParseError::TooManyNodes { n, max } => {
                write!(f, "n={n} exceeds the {max} nodes a list can hold")
            }
            ParseError::BadEntry { index, line } => {
                write!(f, "bad NEXT entry for node {index}: {line:?}")
            }
            ParseError::WrongCount { found, expected } => {
                write!(f, "{found} entries for a {expected}-node list")
            }
            ParseError::Invalid(e) => write!(f, "structurally invalid list: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serialize a list to the v1 text format.
pub fn to_text(list: &LinkedList) -> String {
    let mut out = String::with_capacity(24 + 8 * list.len());
    out.push_str("parmatch-list v1\n");
    if list.is_empty() {
        out.push_str("n=0 head=-\n");
        return out;
    }
    out.push_str(&format!("n={} head={}\n", list.len(), list.head()));
    for &nx in list.next_array() {
        if nx == NIL {
            out.push_str("-\n");
        } else {
            out.push_str(&format!("{nx}\n"));
        }
    }
    out
}

/// Parse the v1 text format, validating the structure.
pub fn from_text(text: &str) -> Result<LinkedList, ParseError> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some("parmatch-list v1") {
        return Err(ParseError::BadMagic);
    }
    let header = lines.next().unwrap_or("").trim().to_string();
    let mut n: Option<usize> = None;
    let mut head: Option<&str> = None;
    for part in header.split_whitespace() {
        if let Some(v) = part.strip_prefix("n=") {
            n = v.parse().ok();
        } else if let Some(v) = part.strip_prefix("head=") {
            head = Some(v);
        }
    }
    let (Some(n), Some(head)) = (n, head) else {
        return Err(ParseError::BadHeader(header));
    };
    if n == 0 {
        return Ok(LinkedList::from_order(&[]));
    }
    // Ids run 0..n and NIL is reserved, so n ≤ NodeId::MAX.
    let max = NodeId::MAX as usize;
    if n > max {
        return Err(ParseError::TooManyNodes { n, max });
    }
    let head: u32 = head
        .parse()
        .map_err(|_| ParseError::BadHeader(header.clone()))?;
    // The header is untrusted: reserve no more than the text can hold
    // (every entry takes at least one character and a line break).
    let mut next = Vec::with_capacity(n.min(text.len() / 2 + 1));
    for (index, line) in lines.enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "-" {
            next.push(NIL);
        } else {
            let v: u32 = line.parse().map_err(|_| ParseError::BadEntry {
                index,
                line: line.to_string(),
            })?;
            next.push(v);
        }
    }
    if next.len() != n {
        return Err(ParseError::WrongCount {
            found: next.len(),
            expected: n,
        });
    }
    if next.iter().any(|&v| v != NIL && v as usize >= n) || (head as usize) >= n {
        return Err(ParseError::Invalid("index out of range".into()));
    }
    let list = LinkedList::from_parts(next, head);
    validate(&list).map_err(|e| ParseError::Invalid(e.to_string()))?;
    Ok(list)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_list;

    #[test]
    fn oversized_header_is_a_typed_error() {
        for n in [u64::MAX, 5_000_000_000, u64::from(u32::MAX) + 1] {
            let text = format!("parmatch-list v1\nn={n} head=0\n1\n-\n");
            assert_eq!(
                from_text(&text),
                Err(ParseError::TooManyNodes {
                    n: n as usize,
                    max: u32::MAX as usize
                })
            );
        }
        // In range, but promising far more entries than the file holds.
        let text = "parmatch-list v1\nn=4000000000 head=0\n1\n-\n";
        assert_eq!(
            from_text(text),
            Err(ParseError::WrongCount {
                found: 2,
                expected: 4_000_000_000
            })
        );
    }

    #[test]
    fn roundtrip() {
        for n in [0usize, 1, 2, 17, 500] {
            let l = random_list(n, 3);
            let text = to_text(&l);
            let back = from_text(&text).unwrap();
            assert_eq!(back, l, "n={n}");
        }
    }

    #[test]
    fn format_is_stable() {
        let l = LinkedList::from_order(&[2, 0, 1]);
        assert_eq!(to_text(&l), "parmatch-list v1\nn=3 head=2\n1\n-\n0\n");
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(from_text("nope"), Err(ParseError::BadMagic));
        assert!(matches!(
            from_text("parmatch-list v1\nwhat"),
            Err(ParseError::BadHeader(_))
        ));
        assert!(matches!(
            from_text("parmatch-list v1\nn=2 head=0\nx\n-\n"),
            Err(ParseError::BadEntry { index: 0, .. })
        ));
        assert!(matches!(
            from_text("parmatch-list v1\nn=3 head=0\n1\n-\n"),
            Err(ParseError::WrongCount {
                found: 2,
                expected: 3
            })
        ));
        // structurally broken: two nodes share a successor
        assert!(matches!(
            from_text("parmatch-list v1\nn=3 head=0\n2\n2\n-\n"),
            Err(ParseError::Invalid(_))
        ));
        // out-of-range index
        assert!(matches!(
            from_text("parmatch-list v1\nn=2 head=0\n9\n-\n"),
            Err(ParseError::Invalid(_))
        ));
    }

    #[test]
    fn error_display() {
        assert!(ParseError::BadMagic.to_string().contains("header"));
        assert!(ParseError::WrongCount {
            found: 1,
            expected: 2
        }
        .to_string()
        .contains("1 entries"));
    }
}
