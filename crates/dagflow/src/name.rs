//! Short text without a heap allocation, for dataset and action names.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Bytes of text a [`Name`] holds inline.
const INLINE: usize = 22;

/// A dataset or action name. Up to 22 bytes of UTF-8 live inline in the
/// 24-byte value and only longer text goes to a `Box<str>`, so building,
/// cloning and dropping an application of thousands of `gradient[17]`-style
/// names allocates nothing for them. Derefs to `str`; prints, compares
/// and orders as its text; its JSON is the JSON string.
///
/// Built from `&str`, `String` or `format_args!` output, which is written
/// in place: `b.narrow(format_args!("dot[{i}]"), …)` formats straight into
/// the name.
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` bytes of `bytes`, whole UTF-8 text.
    Inline {
        len: u8,
        bytes: [u8; INLINE],
    },
    Heap(Box<str>),
}

impl Name {
    /// The name as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("an inline name holds whole UTF-8 text"),
            Repr::Heap(text) => text,
        }
    }

    fn inline(text: &str) -> Option<Self> {
        let len = text.len();
        (len <= INLINE).then(|| {
            let mut bytes = [0; INLINE];
            bytes[..len].copy_from_slice(text.as_bytes());
            Name(Repr::Inline {
                len: len as u8,
                bytes,
            })
        })
    }
}

impl From<&str> for Name {
    fn from(text: &str) -> Self {
        Name::inline(text).unwrap_or_else(|| Name(Repr::Heap(text.into())))
    }
}

impl From<String> for Name {
    fn from(text: String) -> Self {
        Name::inline(&text).unwrap_or_else(|| Name(Repr::Heap(text.into_boxed_str())))
    }
}

impl From<fmt::Arguments<'_>> for Name {
    fn from(args: fmt::Arguments<'_>) -> Self {
        if let Some(text) = args.as_str() {
            return Name::from(text);
        }
        let mut w = Writer {
            len: 0,
            bytes: [0; INLINE],
            spill: String::new(),
        };
        fmt::write(&mut w, args).expect("formatting a name cannot fail");
        if w.spill.is_empty() {
            Name(Repr::Inline {
                len: w.len as u8,
                bytes: w.bytes,
            })
        } else {
            Name(Repr::Heap(w.spill.into_boxed_str()))
        }
    }
}

/// Formats into the inline buffer until a piece would overflow it, then
/// moves everything to `spill` (empty until then: a spilled name is longer
/// than the buffer). Pieces arrive as whole `str`s, so the buffer never
/// ends inside a character.
struct Writer {
    len: usize,
    bytes: [u8; INLINE],
    spill: String,
}

impl fmt::Write for Writer {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        if !self.spill.is_empty() {
            self.spill.push_str(s);
        } else if end <= INLINE {
            self.bytes[self.len..end].copy_from_slice(s.as_bytes());
            self.len = end;
        } else {
            self.spill.reserve_exact(end);
            self.spill.push_str(
                std::str::from_utf8(&self.bytes[..self.len]).expect("whole UTF-8 pieces"),
            );
            self.spill.push_str(s);
        }
        Ok(())
    }
}

impl std::ops::Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        **self == **other
    }
}

impl Eq for Name {}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        &**self == *other
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl Serialize for Name {
    fn write_json(&self, w: &mut serde::JsonWriter) {
        w.str(self);
    }
}

impl Deserialize for Name {
    fn read_json(r: &mut serde::JsonReader<'_>) -> Result<Self, serde::DeError> {
        Ok(match r.str()? {
            Cow::Borrowed(text) => Name::from(text),
            Cow::Owned(text) => Name::from(text),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_inline(name: &Name) -> bool {
        matches!(name.0, Repr::Inline { .. })
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_name_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Name>(), 24);
    }

    /// 22 bytes stay inline and 23 spill, whichever way the name is
    /// built; a two-byte `é` that would straddle the boundary moves the
    /// whole name to the heap instead of splitting.
    #[test]
    fn inline_up_to_22_bytes_then_spill() {
        let cases = [
            ("a".repeat(22), true),
            ("a".repeat(23), false),
            (format!("{}é", "a".repeat(20)), true),
            (format!("{}é", "a".repeat(21)), false),
            (String::new(), true),
        ];
        for (text, inline) in cases {
            let tail = text.chars().last().map(String::from).unwrap_or_default();
            let head = &text[..text.len() - tail.len()];
            let built = [
                Name::from(text.as_str()),
                Name::from(text.clone()),
                Name::from(format_args!("{head}{tail}")),
                Name::from(format_args!("{text}")),
            ];
            for name in built {
                assert_eq!(is_inline(&name), inline, "{text:?}");
                assert_eq!(name.as_str(), text);
                assert_eq!(name.len(), text.len());
            }
        }
    }

    /// Text written piece by piece spills once, at the piece that
    /// overflows, and keeps every piece after it.
    #[test]
    fn formatted_pieces_spill_and_continue() {
        let name = Name::from(format_args!("{}#{}#{}", "x".repeat(15), "profile", 42));
        assert_eq!(name.as_str(), format!("{}#profile#42", "x".repeat(15)));
        assert!(!is_inline(&name));
        let short = Name::from(format_args!("gradient[{}]", 17));
        assert_eq!(short, "gradient[17]");
        assert!(is_inline(&short));
    }

    #[test]
    fn prints_compares_and_orders_as_its_text() {
        let texts = [
            "",
            "b",
            "a\"quote\"",
            "tab\there",
            "é",
            "gradient[3]",
            &"z".repeat(30),
        ];
        for a in texts {
            let na = Name::from(a);
            assert_eq!(na.to_string(), a);
            assert_eq!(format!("{na:?}"), format!("{a:?}"));
            assert_eq!(format!("{na:>12}|{na:<3}"), format!("{a:>12}|{a:<3}"));
            assert!(na == a);
            for b in texts {
                let nb = Name::from(b);
                assert_eq!(na.cmp(&nb), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(na == nb, a == b);
            }
        }
    }

    /// The JSON of a name is the JSON of the same `String`, escapes and
    /// all, and reads back to the same name on either side of the
    /// boundary.
    #[test]
    fn json_matches_a_string() {
        for text in [
            "points",
            "",
            "quote\"and\\slash",
            "line\nbreak\u{1}",
            "ünïcödé[7]",
            "a-name-longer-than-twenty-two-bytes",
            &format!("{}\"", "q".repeat(21)),
        ] {
            let name = Name::from(text);
            let json = serde_json::to_string(&name).unwrap();
            assert_eq!(json, serde_json::to_string(&text.to_owned()).unwrap());
            let back: Name = serde_json::from_str(&json).unwrap();
            assert_eq!(back, text);
            assert_eq!(is_inline(&back), text.len() <= INLINE, "{text:?}");
        }
        assert!(serde_json::from_str::<Name>("7").is_err());
    }
}
