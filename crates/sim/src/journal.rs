//! The on-disk format of every results stream: `srs-cli run`'s result
//! records and `srs-cli search`'s generation records.
//!
//! A stream is append-only JSON Lines with a manifest beside it
//! ([`manifest_path`]). The writer appends a record, flushes it, then
//! rewrites the whole manifest atomically ([`save_manifest`]); the
//! manifest's `bytes_committed` is the length of the stream's durable
//! prefix. A crash can therefore leave at
//! most one torn line past that length, which [`Journal::resume`] cuts
//! before appending again, and which [`read_results`] reports as a crash
//! artifact rather than corruption. `run --attribution` appends one
//! `{"attribution": …}` footer past the committed records; the reader
//! hands it back apart from the records.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};

use crate::campaign::CampaignError;
use crate::json::Json;

/// A failed stream or manifest operation.
#[derive(Debug)]
pub(crate) enum JournalError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// What was being attempted.
        action: &'static str,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The stream is shorter than its manifest committed, or the manifest
    /// does not parse; the message names the path.
    Corrupt(String),
}

impl From<JournalError> for CampaignError {
    fn from(error: JournalError) -> Self {
        match error {
            JournalError::Io { path, action, error } => {
                CampaignError::Io(format!("cannot {action} {}: {error}", path.display()))
            }
            JournalError::Corrupt(message) => CampaignError::Corrupt(message),
        }
    }
}

fn io_err<'a>(
    path: &'a Path,
    action: &'static str,
) -> impl FnOnce(std::io::Error) -> JournalError + 'a {
    move |error| JournalError::Io { path: path.to_path_buf(), action, error }
}

/// An append-only JSONL stream open for writing.
///
/// The crash-test hook is named per stream: when the environment variable
/// passed to [`Journal::create`] or [`Journal::resume`] holds `N`, this
/// process commits `N` records, writes the first half of record `N + 1`,
/// and aborts.
#[derive(Debug)]
pub(crate) struct Journal {
    path: PathBuf,
    file: File,
    len: u64,
    appended: usize,
    crash_after: Option<usize>,
}

impl Journal {
    /// Start an empty stream at `path`, replacing any file there.
    pub(crate) fn create(path: &Path, crash_var: &str) -> Result<Self, JournalError> {
        let file = File::create(path).map_err(io_err(path, "create"))?;
        Ok(Self::with_file(path, file, 0, crash_var))
    }

    /// Reopen the stream at `path` whose manifest committed its first
    /// `committed` bytes, cutting any torn tail past them; also returns
    /// the number of bytes cut. A file shorter than `committed` has lost
    /// committed records and is refused.
    pub(crate) fn resume(
        path: &Path,
        committed: u64,
        crash_var: &str,
    ) -> Result<(Self, u64), JournalError> {
        let file = OpenOptions::new().append(true).open(path).map_err(io_err(path, "open"))?;
        let on_disk = file.metadata().map_err(io_err(path, "stat"))?.len();
        if on_disk < committed {
            return Err(JournalError::Corrupt(format!(
                "{} is {on_disk} bytes but its manifest committed {committed}; the output was \
                 truncated externally",
                path.display()
            )));
        }
        if on_disk > committed {
            file.set_len(committed).map_err(io_err(path, "truncate"))?;
        }
        Ok((Self::with_file(path, file, committed, crash_var), on_disk - committed))
    }

    fn with_file(path: &Path, file: File, len: u64, crash_var: &str) -> Self {
        let crash_after = std::env::var(crash_var).ok().and_then(|n| n.trim().parse().ok());
        Self { path: path.to_path_buf(), file, len, appended: 0, crash_after }
    }

    /// The stream's path.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Append `line` (one JSON document, no newline) as a record with one
    /// write, flush it, and return the stream's new length — the
    /// `bytes_committed` the caller's manifest records next.
    pub(crate) fn append(&mut self, mut line: String) -> Result<u64, JournalError> {
        line.push('\n');
        if self.crash_after == Some(self.appended) {
            // Crash-recovery test hook: manufacture a torn final record.
            let _ = self.file.write_all(&line.as_bytes()[..line.len() / 2]);
            let _ = self.file.flush();
            std::process::abort();
        }
        self.file.write_all(line.as_bytes()).map_err(io_err(&self.path, "append to"))?;
        self.file.flush().map_err(io_err(&self.path, "flush"))?;
        self.appended += 1;
        self.len += line.len() as u64;
        Ok(self.len)
    }
}

/// The manifest of the stream at `out`: `<out>.manifest.json`.
pub(crate) fn manifest_path(out: &Path) -> PathBuf {
    PathBuf::from(format!("{}.manifest.json", out.display()))
}

/// Read and parse the manifest at `path`.
pub(crate) fn load_manifest(path: &Path) -> Result<Json, JournalError> {
    let text = std::fs::read_to_string(path).map_err(io_err(path, "read"))?;
    Json::parse(&text).map_err(|e| JournalError::Corrupt(format!("{}: {e}", path.display())))
}

/// Write `manifest` to `path`, pretty-printed, with [`write_atomic`].
pub(crate) fn save_manifest(path: &Path, manifest: &Json) -> Result<(), JournalError> {
    let mut text = manifest.to_pretty();
    text.push('\n');
    write_atomic(path, &text)
}

/// Replace `path` with `text` atomically: write `<path>.tmp`, then rename
/// it over `path`, so a crash at any instant leaves either the old or the
/// new file, never a torn one.
pub(crate) fn write_atomic(path: &Path, text: &str) -> Result<(), JournalError> {
    let tmp = PathBuf::from(format!("{}.tmp", path.display()));
    std::fs::write(&tmp, text).map_err(io_err(&tmp, "write"))?;
    std::fs::rename(&tmp, path).map_err(io_err(path, "replace"))
}

/// Read a results stream (a `run` or `search` output) line by line.
///
/// `visit` receives every record in file order, verbatim and parsed;
/// blank lines are skipped, and a message `visit` rejects a record with
/// becomes a [`CampaignError::Corrupt`] naming the file and line. Returns
/// the payload of the `{"attribution": …}` footer, if the stream carries
/// one (it is not passed to `visit`), and the byte offset of a torn final
/// line, if there is one: a last non-blank line that does not parse is
/// what a process killed mid-write leaves behind. Any other unparseable
/// line is corrupt.
pub fn read_results(
    path: &Path,
    mut visit: impl FnMut(&str, &Json) -> Result<(), String>,
) -> Result<(Option<Json>, Option<u64>), CampaignError> {
    let read_err =
        |e: std::io::Error| CampaignError::Io(format!("cannot read {}: {e}", path.display()));
    let mut reader = BufReader::new(File::open(path).map_err(read_err)?);
    let mut footer = None;
    let mut line = Vec::new();
    let (mut lineno, mut offset) = (0usize, 0u64);
    loop {
        line.clear();
        let bytes = reader.read_until(b'\n', &mut line).map_err(read_err)?;
        if bytes == 0 {
            return Ok((footer, None));
        }
        lineno += 1;
        let start = offset;
        offset += bytes as u64;
        let text = line.strip_suffix(b"\n").unwrap_or(&line);
        let text = text.strip_suffix(b"\r").unwrap_or(text);
        if text.iter().all(u8::is_ascii_whitespace) {
            continue;
        }
        let parsed = std::str::from_utf8(text)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(text).map(|json| (text, json)).map_err(|e| e.to_string()));
        let corrupt =
            |message| CampaignError::Corrupt(format!("{}:{lineno}: {message}", path.display()));
        match parsed {
            Ok((text, json)) => match json.get("attribution") {
                Some(attribution) => footer = Some(attribution.clone()),
                None => visit(text, &json).map_err(corrupt)?,
            },
            Err(error) => {
                let mut rest = Vec::new();
                reader.read_to_end(&mut rest).map_err(read_err)?;
                if rest.iter().all(u8::is_ascii_whitespace) {
                    return Ok((footer, Some(start)));
                }
                return Err(corrupt(error));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("srs-journal-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    /// No test sets this variable, so the crash hook stays disarmed.
    const NO_HOOK: &str = "SRS_JOURNAL_TEST_NO_CRASH_HOOK";

    #[test]
    fn resume_cuts_a_torn_tail_and_refuses_a_stream_shorter_than_committed() {
        let path = scratch("resume").join("out.jsonl");
        let mut journal = Journal::create(&path, NO_HOOK).unwrap();
        assert_eq!(journal.append(r#"{"a":1}"#.to_string()).unwrap(), 8);
        let committed = journal.append(r#"{"b":2}"#.to_string()).unwrap();
        assert_eq!(committed, 16);
        drop(journal);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(br#"{"c":"#).unwrap();

        let (mut journal, cut) = Journal::resume(&path, committed, NO_HOOK).unwrap();
        assert_eq!(cut, 5, "the torn tail was cut");
        assert_eq!(journal.append(r#"{"c":3}"#.to_string()).unwrap(), 24);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n");

        std::fs::write(&path, "{\"a\":1}\n").unwrap();
        match Journal::resume(&path, committed, NO_HOOK) {
            Err(JournalError::Corrupt(message)) => {
                assert!(message.contains("truncated externally"), "message: {message}");
            }
            other => panic!("a stream shorter than its committed bytes resumed: {other:?}"),
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\":1}\n", "left as it was");
    }

    #[test]
    fn reader_returns_the_footer_and_a_torn_tail_apart_from_the_records() {
        let path = scratch("read").join("out.jsonl");
        let committed = "{\"r\":0}\n\n{\"r\":1}\n{\"attribution\":{\"wall_ns\":5}}\n";
        std::fs::write(&path, format!("{committed}{{\"r\":\n")).unwrap();
        let mut seen = Vec::new();
        let (footer, torn) = read_results(&path, |text, record| {
            assert_eq!(Json::parse(text).unwrap(), *record, "records arrive verbatim");
            seen.push(text.to_string());
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, ["{\"r\":0}", "{\"r\":1}"]);
        assert_eq!(footer, Some(Json::parse("{\"wall_ns\":5}").unwrap()));
        assert_eq!(torn, Some(committed.len() as u64), "the torn line starts past the footer");

        std::fs::write(&path, committed).unwrap();
        assert_eq!(read_results(&path, |_, _| Ok(())).unwrap().1, None, "nothing torn");
    }

    #[test]
    fn reader_rejects_garbage_mid_stream_and_rejected_records_by_line() {
        let path = scratch("corrupt").join("out.jsonl");
        std::fs::write(&path, "{\"r\":0}\nnot json\n{\"r\":1}\n").unwrap();
        let error = read_results(&path, |_, _| Ok(())).unwrap_err();
        assert!(matches!(&error, CampaignError::Corrupt(m) if m.contains("out.jsonl:2:")));

        std::fs::write(&path, "{\"r\":0}\n{\"r\":1}\n").unwrap();
        let error = read_results(&path, |_, record| match record.get("r") {
            Some(Json::Uint(0)) => Ok(()),
            _ => Err("r must be 0".to_string()),
        })
        .unwrap_err();
        assert!(
            matches!(&error, CampaignError::Corrupt(m) if m.ends_with("out.jsonl:2: r must be 0")),
            "{error}"
        );
    }
}
