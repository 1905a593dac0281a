//! The `aim-serve` wire format: length-prefixed flat-JSON frames.
//!
//! The simulation job server ships requests and responses as independent
//! **frames** — a 4-byte big-endian length followed by that many bytes of
//! UTF-8 JSON — over any byte stream (a Unix socket, a stdin/stdout pipe,
//! or the in-memory [`duplex`] used by tests and the replay driver). The
//! offline build has no serde, so the JSON layer here is deliberately
//! minimal: every message is one **flat** object whose values are strings,
//! non-negative integers, floats, or booleans ([`WireValue`]). That is all
//! the job protocol needs, and keeping nesting out of the grammar keeps
//! the hand-written parser small enough to test exhaustively.
//!
//! # Examples
//!
//! ```
//! use aim_types::wire::{read_frame, write_frame, WireMsg, WireValue};
//!
//! let mut msg = WireMsg::new();
//! msg.put_str("op", "sim");
//! msg.put_u64("round", 2);
//! msg.put_bool("verify", true);
//!
//! let mut buf = Vec::new();
//! write_frame(&mut buf, msg.to_json().as_bytes()).unwrap();
//! let frame = read_frame(&mut buf.as_slice()).unwrap().unwrap();
//! let back = WireMsg::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
//! assert_eq!(back.str_field("op"), Some("sim"));
//! assert_eq!(back.u64_field("round"), Some(2));
//! assert_eq!(back.bool_field("verify"), Some(true));
//! ```

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex};

/// Hard ceiling on a frame's payload length. A peer announcing more than
/// this is treated as corrupt rather than trusted with an allocation.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates the underlying I/O error; rejects payloads larger than
/// [`MAX_FRAME_BYTES`] with [`io::ErrorKind::InvalidInput`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap", payload.len()),
        ));
    }
    let len = u32::try_from(payload.len()).expect("cap fits in u32");
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean
/// end-of-stream (EOF exactly at a frame boundary).
///
/// # Errors
///
/// Propagates the underlying I/O error; a truncated frame or an announced
/// length beyond [`MAX_FRAME_BYTES`] is [`io::ErrorKind::InvalidData`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream ended inside a frame header",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a {len}-byte frame (cap {MAX_FRAME_BYTES})"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(io::ErrorKind::InvalidData, "stream ended inside a frame body")
        } else {
            e
        }
    })?;
    Ok(Some(payload))
}

/// One value of a flat wire message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireValue {
    /// A JSON string.
    Str(String),
    /// A non-negative JSON integer.
    U64(u64),
    /// A JSON number with a fractional part (or one too large for `u64`).
    F64(f64),
    /// A JSON boolean.
    Bool(bool),
}

impl WireValue {
    /// Appends the value's JSON text: strings quoted and escaped (see
    /// [`write_json_str`]), floats at six decimals with non-finite values
    /// as `0.000000` (JSON has no NaN or infinity), integers and booleans
    /// as themselves. Every wire message and every artifact report spells
    /// its values through this one rule.
    pub fn write_json(&self, out: &mut String) {
        match self {
            WireValue::Str(s) => write_json_str(s, out),
            WireValue::U64(n) => out.push_str(&n.to_string()),
            WireValue::F64(x) if x.is_finite() => out.push_str(&format!("{x:.6}")),
            WireValue::F64(_) => out.push_str("0.000000"),
            WireValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

/// A flat JSON object: ordered `(key, value)` pairs, serialized in
/// insertion order so renderings are byte-stable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireMsg {
    fields: Vec<(String, WireValue)>,
}

impl WireMsg {
    /// An empty message.
    pub fn new() -> WireMsg {
        WireMsg::default()
    }

    /// Appends a string field.
    pub fn put_str(&mut self, key: &str, value: &str) -> &mut WireMsg {
        self.fields.push((key.to_string(), WireValue::Str(value.to_string())));
        self
    }

    /// Appends an integer field.
    pub fn put_u64(&mut self, key: &str, value: u64) -> &mut WireMsg {
        self.fields.push((key.to_string(), WireValue::U64(value)));
        self
    }

    /// Appends a float field.
    pub fn put_f64(&mut self, key: &str, value: f64) -> &mut WireMsg {
        self.fields.push((key.to_string(), WireValue::F64(value)));
        self
    }

    /// Appends a boolean field.
    pub fn put_bool(&mut self, key: &str, value: bool) -> &mut WireMsg {
        self.fields.push((key.to_string(), WireValue::Bool(value)));
        self
    }

    /// Every field name, in message order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(k, _)| k.as_str())
    }

    /// Every `(key, value)` pair, in message order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &WireValue)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The first value stored under `key`, if any.
    pub fn get(&self, key: &str) -> Option<&WireValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string stored under `key`, if it is one.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(WireValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The integer stored under `key`, if it is one.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        match self.get(key) {
            Some(WireValue::U64(n)) => Some(*n),
            _ => None,
        }
    }

    /// The number stored under `key` (integer fields widen losslessly for
    /// values below 2^53).
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(WireValue::F64(x)) => Some(*x),
            Some(WireValue::U64(n)) => Some(*n as f64),
            _ => None,
        }
    }

    /// The boolean stored under `key`, if it is one.
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        match self.get(key) {
            Some(WireValue::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    /// Renders the message as one flat JSON object, fields in insertion
    /// order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2 + self.fields.len() * 24);
        out.push('{');
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_str(key, &mut out);
            out.push(':');
            value.write_json(&mut out);
        }
        out.push('}');
        out
    }

    /// Parses one flat JSON object.
    ///
    /// # Errors
    ///
    /// Returns a one-line description for malformed JSON, nested
    /// containers (the wire grammar is flat by design), or invalid escapes.
    pub fn parse(text: &str) -> Result<WireMsg, String> {
        let mut p = Parser { chars: text.char_indices().peekable(), text };
        p.skip_ws();
        p.expect('{')?;
        let mut msg = WireMsg::new();
        p.skip_ws();
        if p.eat('}') {
            p.skip_ws();
            return p.finish(msg);
        }
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(':')?;
            p.skip_ws();
            let value = p.value()?;
            msg.fields.push((key, value));
            p.skip_ws();
            if p.eat(',') {
                continue;
            }
            p.expect('}')?;
            p.skip_ws();
            return p.finish(msg);
        }
    }
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    text: &'a str,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            self.chars.next();
        }
    }

    fn eat(&mut self, want: char) -> bool {
        if matches!(self.chars.peek(), Some((_, c)) if *c == want) {
            self.chars.next();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected `{want}` at byte {i}, found `{c}`")),
            None => Err(format!("expected `{want}`, found end of input")),
        }
    }

    fn finish(&mut self, msg: WireMsg) -> Result<WireMsg, String> {
        match self.chars.next() {
            None => Ok(msg),
            Some((i, c)) => Err(format!("trailing `{c}` at byte {i} after the object")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                None => return Err("unterminated string".to_string()),
                Some((_, '"')) => return Ok(out),
                Some((_, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .chars
                                .next()
                                .and_then(|(_, c)| c.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some((_, c)) => out.push(c),
            }
        }
    }

    fn value(&mut self) -> Result<WireValue, String> {
        match self.chars.peek() {
            Some((_, '"')) => Ok(WireValue::Str(self.string()?)),
            Some((_, 't' | 'f')) => {
                let word = self.bare_word();
                match word.as_str() {
                    "true" => Ok(WireValue::Bool(true)),
                    "false" => Ok(WireValue::Bool(false)),
                    other => Err(format!("unknown literal `{other}`")),
                }
            }
            Some((i, '{' | '[')) => {
                Err(format!("nested container at byte {i}: wire messages are flat"))
            }
            Some((start, _)) => {
                let start = *start;
                let word = self.bare_word();
                if word.is_empty() {
                    return Err(format!("expected a value at byte {start}"));
                }
                if !is_json_number(&word) {
                    return Err(format!("bad number `{word}` at byte {start}"));
                }
                match word.parse::<u64>() {
                    Ok(n) => Ok(WireValue::U64(n)),
                    Err(_) => word
                        .parse::<f64>()
                        .map(WireValue::F64)
                        .map_err(|_| format!("bad number `{word}` at byte {start}")),
                }
            }
            None => Err("expected a value, found end of input".to_string()),
        }
    }

    /// Consumes a run of number/literal characters.
    fn bare_word(&mut self) -> String {
        let start = match self.chars.peek() {
            Some((i, _)) => *i,
            None => return String::new(),
        };
        let mut end = start;
        while let Some((i, c)) = self.chars.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '+') {
                end = i + c.len_utf8();
                self.chars.next();
            } else {
                break;
            }
        }
        self.text[start..end].to_string()
    }
}

/// Whether `word` spells a number in JSON's grammar,
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn is_json_number(word: &str) -> bool {
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let unsigned = word.strip_prefix('-').unwrap_or(word);
    let (mantissa, exp) = unsigned.split_once(['e', 'E']).unwrap_or((unsigned, "0"));
    let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, "0"));
    let exp = exp.strip_prefix(['+', '-']).unwrap_or(exp);
    digits(int) && (int == "0" || !int.starts_with('0')) && digits(frac) && digits(exp)
}

/// Appends `s` as a quoted JSON string: `"` and `\` are backslash-escaped
/// and control characters become `\u00XX`; everything else, non-ASCII
/// text included, is copied as is. This is the workspace's one JSON string
/// escaper.
pub fn write_json_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One direction of an in-memory byte pipe.
#[derive(Debug, Default)]
struct Chan {
    buf: Mutex<ChanBuf>,
    readable: Condvar,
}

#[derive(Debug, Default)]
struct ChanBuf {
    bytes: VecDeque<u8>,
    closed: bool,
}

/// One end of an in-memory duplex stream (see [`duplex`]). Reading blocks
/// until the peer writes or hangs up; dropping an end closes its outgoing
/// direction, so the peer's reads drain and then report end-of-stream.
#[derive(Debug)]
pub struct PipeEnd {
    rx: Arc<Chan>,
    tx: Arc<Chan>,
}

/// Creates a connected pair of in-memory byte streams — the "pipe mode"
/// transport the replay driver and the protocol tests run the server over,
/// with the same blocking semantics as a local socket but no file-system
/// footprint.
pub fn duplex() -> (PipeEnd, PipeEnd) {
    let a = Arc::new(Chan::default());
    let b = Arc::new(Chan::default());
    (
        PipeEnd { rx: Arc::clone(&a), tx: Arc::clone(&b) },
        PipeEnd { rx: b, tx: a },
    )
}

impl Read for PipeEnd {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut buf = self.rx.buf.lock().expect("pipe lock");
        while buf.bytes.is_empty() && !buf.closed {
            buf = self.rx.readable.wait(buf).expect("pipe lock");
        }
        let n = buf.bytes.len().min(out.len());
        for slot in out.iter_mut().take(n) {
            *slot = buf.bytes.pop_front().expect("counted byte");
        }
        Ok(n)
    }
}

impl Write for PipeEnd {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut buf = self.tx.buf.lock().expect("pipe lock");
        if buf.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer hung up"));
        }
        buf.bytes.extend(data.iter().copied());
        self.tx.readable.notify_all();
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeEnd {
    fn drop(&mut self) {
        // Close the outgoing direction so the peer's pending reads return.
        let mut buf = self.tx.buf.lock().expect("pipe lock");
        buf.closed = true;
        self.tx.readable.notify_all();
        // And wake any reader of our own (now orphaned) incoming side.
        let mut rx = self.rx.buf.lock().expect("pipe lock");
        rx.closed = true;
        self.rx.readable.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"third frame").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"first");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"third frame");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn truncated_and_oversized_frames_are_invalid_data() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let err = read_frame(&mut [0u8, 0, 0].as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let huge = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
        let err = read_frame(&mut huge.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn messages_round_trip_through_json() {
        let mut msg = WireMsg::new();
        msg.put_str("op", "sim")
            .put_str("kernel", "gzip \"quoted\"\\path")
            .put_u64("cells", 240)
            .put_f64("wall", 1.25)
            .put_bool("verify", false);
        let json = msg.to_json();
        let back = WireMsg::parse(&json).unwrap();
        assert_eq!(back.str_field("op"), Some("sim"));
        assert_eq!(back.str_field("kernel"), Some("gzip \"quoted\"\\path"));
        assert_eq!(back.u64_field("cells"), Some(240));
        assert_eq!(back.f64_field("wall"), Some(1.25));
        assert_eq!(back.f64_field("cells"), Some(240.0));
        assert_eq!(back.bool_field("verify"), Some(false));
        assert_eq!(back.get("absent"), None);
    }

    #[test]
    fn parser_rejects_nesting_and_junk() {
        assert!(WireMsg::parse("{}").unwrap().get("x").is_none());
        assert!(WireMsg::parse(" { \"a\" : 1 } ").is_ok());
        assert!(WireMsg::parse("{\"a\": {\"b\": 1}}").unwrap_err().contains("flat"));
        assert!(WireMsg::parse("{\"a\": [1]}").unwrap_err().contains("flat"));
        assert!(WireMsg::parse("{\"a\": 1} trailing").unwrap_err().contains("trailing"));
        assert!(WireMsg::parse("{\"a\": nope}").is_err());
        assert!(WireMsg::parse("{\"a\": \"unterminated}").is_err());
        assert!(WireMsg::parse("\"not an object\"").is_err());
    }

    #[test]
    fn negative_and_fractional_numbers_parse_as_f64() {
        let msg = WireMsg::parse("{\"x\": -2.5, \"y\": 3, \"z\": 1e3}").unwrap();
        assert_eq!(msg.f64_field("x"), Some(-2.5));
        assert_eq!(msg.u64_field("y"), Some(3));
        assert_eq!(msg.f64_field("z"), Some(1000.0));
    }

    #[test]
    fn only_json_number_spellings_decode() {
        for bad in ["nan", "inf", "+1", "01", "1.", ".5"] {
            let err = WireMsg::parse(&format!("{{\"a\": {bad}}}")).unwrap_err();
            assert!(err.contains("bad number"), "`{bad}`: {err}");
        }
        for bad in ["-", "-01", "1e", "1e+", "1.e3", "0x10", "1-2", "--1"] {
            assert!(WireMsg::parse(&format!("{{\"a\": {bad}}}")).is_err(), "`{bad}`");
        }
        let good = WireMsg::parse("{\"a\": 0, \"b\": -0, \"c\": 10.25, \"d\": -1E+2, \"e\": 5e-1}")
            .unwrap();
        assert_eq!(good.u64_field("a"), Some(0));
        assert_eq!(good.f64_field("b"), Some(0.0));
        assert_eq!(good.f64_field("c"), Some(10.25));
        assert_eq!(good.f64_field("d"), Some(-100.0));
        assert_eq!(good.f64_field("e"), Some(0.5));
        let huge = WireMsg::parse("{\"a\": 1e999999999999999999999}").unwrap();
        assert_eq!(huge.f64_field("a"), Some(f64::INFINITY));
    }

    #[test]
    fn control_characters_escape_and_unescape() {
        let mut msg = WireMsg::new();
        msg.put_str("s", "tab\there\nline");
        let json = msg.to_json();
        assert!(json.contains("\\u0009") || json.contains("\\t"));
        assert_eq!(WireMsg::parse(&json).unwrap().str_field("s"), Some("tab\there\nline"));
    }

    #[test]
    fn duplex_carries_frames_across_threads() {
        let (mut a, mut b) = duplex();
        let echo = std::thread::spawn(move || {
            while let Some(frame) = read_frame(&mut b).unwrap() {
                let mut reply = frame.clone();
                reply.reverse();
                write_frame(&mut b, &reply).unwrap();
            }
        });
        write_frame(&mut a, b"abc").unwrap();
        assert_eq!(read_frame(&mut a).unwrap().unwrap(), b"cba");
        write_frame(&mut a, b"xy").unwrap();
        assert_eq!(read_frame(&mut a).unwrap().unwrap(), b"yx");
        drop(a);
        echo.join().unwrap();
    }

    #[test]
    fn dropping_an_end_reports_eof_then_broken_pipe() {
        let (mut a, b) = duplex();
        drop(b);
        assert!(read_frame(&mut a).unwrap().is_none());
        assert!(write_frame(&mut a, b"x").is_err());
    }
}
