//! Trace-file workload ingestion: the Azure Functions 2019 dataset schema
//! behind the [`Workload`] trait.
//!
//! The *Serverless in the Wild* release publishes one invocations-per-function
//! CSV file per day: a `HashOwner,HashApp,HashFunction,Trigger,1,..,1440`
//! header, then one row per function carrying the owner / app / function
//! hashes, the trigger type and 1440 per-minute invocation counts. That is
//! the one layout [`TraceFileWorkload`] reads: four metadata columns, then
//! minute counts. (The release ships memory and duration percentiles in
//! separate per-app and per-function files, which this module does not
//! read.) The parser streams the file line by line, tolerant of ragged
//! rows, and expands the selected day's counts into timestamped
//! [`TraceRequest`]s: every invocation lands in its minute at a
//! deterministic within-minute jitter drawn from the caller's seeded
//! xoshiro RNG, and object identities are assigned hash-stably from the
//! row's function hash, so the same file and seed always reproduce the same
//! arrival stream. Each request names its function by slot: the rank of that
//! hash among the functions the day window invokes.
//!
//! The real dataset cannot ship in this repository, so the module also
//! closes the loop in the other direction: [`TraceFileWorkload::from_workload`]
//! buckets a synthetic [`AzureWorkload`] trace into the identical CSV schema
//! (emitted by [`TraceFileWorkload::to_csv`], regenerated by the
//! `generate-trace` CLI subcommand), and `data/azure_trace_sample.csv` — a
//! ~200-function sample produced by [`sample_workload`] — is checked in for
//! CI and the cross-validation example. The round trip is pinned:
//! generate → parse → expand must bit-match the in-memory expansion.

use std::fmt;
use std::io::BufRead;

use dscs_simcore::csv::{render_record, split_record, CsvError};
use dscs_simcore::rng::DeterministicRng;
use dscs_simcore::time::{SimDuration, SimTime};

use crate::trace::TraceRequest;
use crate::workload::{mix64, AzureWorkload, ObjectCatalog, Workload, WorkloadError};

/// Minute columns one dataset day spans.
pub const MINUTES_PER_DAY: u32 = 1440;

/// The dataset's leading metadata columns (owner, app, function, trigger).
const META_COLUMNS: usize = 4;

/// Errors produced while ingesting a trace file.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// The file could not be opened, or a line of it could not be read (a
    /// byte that is not UTF-8, say).
    Io {
        /// The path that failed to open, or the source label of the file a
        /// line failed in.
        path: String,
        /// The OS error message, after the failing line's number when a
        /// line failed.
        message: String,
    },
    /// A record failed CSV tokenization.
    Csv(CsvError),
    /// A data row is missing the leading metadata columns.
    MissingColumns {
        /// 1-based line of the offending row.
        line: usize,
        /// Fields the row actually has.
        found: usize,
    },
    /// An invocation-count column holds something other than a count.
    MalformedCount {
        /// 1-based line of the offending row.
        line: usize,
        /// 1-based minute column (after the metadata columns).
        column: usize,
        /// The offending field text.
        value: String,
    },
    /// A header column after the metadata is not a numeric minute label.
    UnknownHeaderColumn {
        /// 1-based column (after the metadata columns).
        column: usize,
        /// The offending header text.
        name: String,
    },
    /// A `HashOwner` header record comes after the file's first record, as
    /// it does when two day files are concatenated.
    MisplacedHeader {
        /// 1-based line of the second header.
        line: usize,
    },
    /// The file has no data rows.
    EmptyFile,
    /// The requested day is zero. Dataset days are 1-based, so this gets a
    /// dedicated message instead of the nonsensical "day 0 starts beyond
    /// the file" that [`IngestError::DayOutOfRange`] would render.
    DayZero,
    /// The requested day window starts beyond the file's minute columns.
    DayOutOfRange {
        /// The requested 1-based day.
        day: u32,
        /// Minute columns the file actually has.
        minutes: u32,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io { path, message } => {
                write!(f, "cannot read trace file {path}: {message}")
            }
            IngestError::Csv(err) => write!(f, "{err}"),
            IngestError::MissingColumns { line, found } => write!(
                f,
                "line {line}: expected at least {META_COLUMNS} columns \
                 (owner, app, function, trigger), found {found}"
            ),
            IngestError::MalformedCount {
                line,
                column,
                value,
            } => write!(
                f,
                "line {line}, minute column {column}: '{value}' is not an invocation count"
            ),
            IngestError::UnknownHeaderColumn { column, name } => {
                write!(f, "header column {column}: '{name}' is not a minute label")
            }
            IngestError::MisplacedHeader { line } => write!(
                f,
                "line {line}: a HashOwner header after the first record \
                 (a trace file holds one day file, with at most one header)"
            ),
            IngestError::EmptyFile => write!(f, "trace file has no data rows"),
            IngestError::DayZero => write!(
                f,
                "day 0 is not a valid day: dataset days are 1-based \
                 (day 1 covers the first {MINUTES_PER_DAY} minute columns)"
            ),
            IngestError::DayOutOfRange { day, minutes } => write!(
                f,
                "day {day} starts beyond the file's {minutes} minute column(s) \
                 ({MINUTES_PER_DAY} minutes per day)"
            ),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Csv(err) => Some(err),
            _ => None,
        }
    }
}

impl From<CsvError> for IngestError {
    fn from(err: CsvError) -> Self {
        IngestError::Csv(err)
    }
}

/// One function row of a trace file: the dataset's hash identities plus the
/// per-minute invocation counts (zero-padded to the file's column width).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFunction {
    /// The dataset's `HashOwner` column.
    pub owner: String,
    /// The dataset's `HashApp` column.
    pub app: String,
    /// The dataset's `HashFunction` column — the identity requests carry.
    pub function: String,
    /// The dataset's `Trigger` column (kept verbatim; informational).
    pub trigger: String,
    /// Invocations per minute.
    pub counts: Vec<u32>,
}

impl TraceFunction {
    /// The stable `u32` function id behind the slot the expansion stamps onto
    /// requests: a hash of the row's function-hash string, so the id
    /// survives row reordering and file slicing. (Benchmark binding and
    /// object identities derive from this id exactly as they do for
    /// synthetic workloads.)
    pub fn id(&self) -> u32 {
        function_id(&self.function)
    }
}

/// Salt separating trace-file function-id hashing from the object salts.
const FUNCTION_ID_SALT: u64 = 0x7F1D_0CA7_A10F_5EED;

/// Salts for the synthetic owner/app/function hashes `from_workload` mints.
const OWNER_HASH_SALT: u64 = 0x0AF1_CE00_D00D_0001;
const APP_HASH_SALT: u64 = 0x0AF1_CE00_D00D_0002;
const FUNCTION_HASH_SALT: u64 = 0x0AF1_CE00_D00D_0003;

/// Hash-stable function id for a dataset function-hash string.
pub fn function_id(function_hash: &str) -> u32 {
    let mut h = FUNCTION_ID_SALT;
    for byte in function_hash.as_bytes() {
        h = mix64(h ^ u64::from(*byte));
    }
    h as u32
}

/// A trace-file-backed [`Workload`]: the parsed per-function minute counts
/// of one Azure-schema CSV, expanded on demand into a timestamped request
/// trace covering the selected day window.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFileWorkload {
    /// Where the rows came from (file name or a generator label); used in
    /// report labels.
    pub source: String,
    /// One entry per data row, in file order.
    pub functions: Vec<TraceFunction>,
    /// Minute columns the file spans (the widest row; ragged rows are
    /// zero-padded up to it).
    pub minutes: u32,
    /// The 1-based day window the expansion covers (day `d` is minute
    /// columns `(d-1)*1440 .. d*1440`, clipped to the file).
    pub day: u32,
}

impl TraceFileWorkload {
    /// Parses an Azure-schema CSV from `reader`, streaming line by line.
    ///
    /// Schema tolerance: a leading UTF-8 byte-order mark and blank lines are
    /// ignored; the first record may be a `HashOwner,...` header, whose
    /// columns after the metadata must be numeric minute labels; rows of
    /// different widths are zero-padded to the widest (the dataset's
    /// trailing-day rows are ragged); empty count fields read as zero.
    /// Anything else — a line that cannot be read, too few metadata columns,
    /// a count that is not ASCII digits (a sign included), a header column
    /// that is not a minute label, a header after the first record, no data
    /// rows at all, or a `day` beyond the file — is a typed [`IngestError`],
    /// never a panic. A read error names `source` and the line.
    pub fn from_reader(
        reader: impl BufRead,
        source: impl Into<String>,
        day: u32,
    ) -> Result<Self, IngestError> {
        let source = source.into();
        let mut functions: Vec<TraceFunction> = Vec::new();
        let mut minutes = 0u32;
        let mut records = 0usize;
        for (index, line) in reader.lines().enumerate() {
            let line_no = index + 1;
            let line = line.map_err(|err| IngestError::Io {
                path: source.clone(),
                message: format!("line {line_no}: {err}"),
            })?;
            let text = match index {
                0 => line.strip_prefix('\u{feff}').unwrap_or(&line),
                _ => &line,
            };
            if text.trim().is_empty() {
                continue;
            }
            let fields = split_record(text, line_no)?;
            records += 1;
            if fields.first().map(String::as_str) == Some("HashOwner") {
                if records > 1 {
                    return Err(IngestError::MisplacedHeader { line: line_no });
                }
                let labels = fields.get(META_COLUMNS..).unwrap_or_default();
                if let Some(offset) = labels.iter().position(|name| parse_digits(name).is_none()) {
                    return Err(IngestError::UnknownHeaderColumn {
                        column: offset + 1,
                        name: labels[offset].clone(),
                    });
                }
                continue;
            }
            if fields.len() < META_COLUMNS {
                return Err(IngestError::MissingColumns {
                    line: line_no,
                    found: fields.len(),
                });
            }
            let counts = fields[META_COLUMNS..]
                .iter()
                .enumerate()
                .map(|(offset, field)| match field.as_str() {
                    "" => Ok(0),
                    text => parse_digits(text).ok_or_else(|| IngestError::MalformedCount {
                        line: line_no,
                        column: offset + 1,
                        value: field.clone(),
                    }),
                })
                .collect::<Result<Vec<u32>, _>>()?;
            minutes = minutes.max(counts.len() as u32);
            let mut fields = fields.into_iter();
            functions.push(TraceFunction {
                owner: fields.next().expect("checked above"),
                app: fields.next().expect("checked above"),
                function: fields.next().expect("checked above"),
                trigger: fields.next().expect("checked above"),
                counts,
            });
        }
        if functions.is_empty() {
            return Err(IngestError::EmptyFile);
        }
        if day == 0 {
            return Err(IngestError::DayZero);
        }
        // u64 arithmetic: a huge requested day must report out-of-range, not
        // overflow the u32 multiply.
        if u64::from(day - 1) * u64::from(MINUTES_PER_DAY) >= u64::from(minutes) {
            return Err(IngestError::DayOutOfRange { day, minutes });
        }
        // Zero-pad ragged rows to the file's width so expansion and
        // re-emission see a rectangular table.
        for function in &mut functions {
            function.counts.resize(minutes as usize, 0);
        }
        Ok(TraceFileWorkload {
            source,
            functions,
            minutes,
            day,
        })
    }

    /// Parses an Azure-schema CSV file; the workload's source label is the
    /// file name (the last path component).
    pub fn from_csv_path(path: &str, day: u32) -> Result<Self, IngestError> {
        let file = std::fs::File::open(path).map_err(|err| IngestError::Io {
            path: path.to_string(),
            message: err.to_string(),
        })?;
        let source = std::path::Path::new(path)
            .file_name()
            .map(|name| name.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.to_string());
        Self::from_reader(std::io::BufReader::new(file), source, day)
    }

    /// Buckets a synthetic [`AzureWorkload`] trace (generated with `rng`)
    /// into the dataset schema: one row per function — including functions
    /// the trace never invoked, so zero rows exercise the parser's
    /// tolerance — with synthetic owner/app/function hashes and per-minute
    /// counts. `to_csv` then emits a file the parser round-trips exactly.
    pub fn from_workload(
        workload: &AzureWorkload,
        rng: &mut DeterministicRng,
        source: impl Into<String>,
    ) -> Result<Self, WorkloadError> {
        let trace = workload.generate_ranked(rng)?;
        let minutes = (workload.horizon.as_secs_f64() / 60.0).ceil().max(1.0) as u32;
        let mut functions: Vec<TraceFunction> = (0..workload.functions)
            .map(|f| TraceFunction {
                // Synthetic dataset hashes: functions share owners in groups
                // of 16 and apps in groups of 4, mimicking the dataset's
                // owner -> app -> function hierarchy.
                owner: synthetic_hash(OWNER_HASH_SALT, u64::from(f / 16)),
                app: synthetic_hash(APP_HASH_SALT, u64::from(f / 4)),
                function: synthetic_hash(FUNCTION_HASH_SALT, u64::from(f)),
                trigger: "storage".into(),
                counts: vec![0; minutes as usize],
            })
            .collect();
        for request in &trace {
            let minute = (request.arrival.as_secs_f64() / 60.0) as usize;
            let minute = minute.min(minutes as usize - 1);
            functions[request.function as usize].counts[minute] += 1;
        }
        Ok(TraceFileWorkload {
            source: source.into(),
            functions,
            minutes,
            day: 1,
        })
    }

    /// Renders the workload back into the dataset's CSV schema: the header
    /// row, then one full-width row per function. [`Self::from_reader`] of the
    /// output reproduces `self` (with `source` replaced by the caller's),
    /// and re-emitting that parse is byte-identical — the round trip CI
    /// pins.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("HashOwner,HashApp,HashFunction,Trigger");
        for minute in 1..=self.minutes {
            out.push(',');
            out.push_str(&minute.to_string());
        }
        out.push('\n');
        for function in &self.functions {
            let mut fields: Vec<String> = vec![
                function.owner.clone(),
                function.app.clone(),
                function.function.clone(),
                function.trigger.clone(),
            ];
            fields.extend(function.counts.iter().map(u32::to_string));
            out.push_str(&render_record(&fields));
            out.push('\n');
        }
        out
    }

    /// Total invocations in the selected day window.
    pub fn invocations(&self) -> u64 {
        self.functions
            .iter()
            .map(|f| {
                self.window_counts(f)
                    .iter()
                    .map(|&c| u64::from(c))
                    .sum::<u64>()
            })
            .sum()
    }

    /// The selected day's minute-column range, clipped to the file: empty
    /// for day 0 or a day that starts beyond the file. In `u64`, so no
    /// `day` can overflow it.
    fn window(&self) -> (usize, usize) {
        let day = u64::from(self.day);
        let end = (day * u64::from(MINUTES_PER_DAY)).min(u64::from(self.minutes));
        let start = (day.saturating_sub(1) * u64::from(MINUTES_PER_DAY)).min(end);
        (start as usize, end as usize)
    }

    /// `function`'s counts in the selected day window, clipped to its row:
    /// `from_reader` pads rows to `minutes`, but a caller-built row may be
    /// shorter, and the minutes it lacks read as zero.
    fn window_counts<'a>(&self, function: &'a TraceFunction) -> &'a [u32] {
        let (start, end) = self.window();
        let end = end.min(function.counts.len());
        function.counts.get(start..end).unwrap_or_default()
    }

    /// The 32-bit id ([`TraceFunction::id`]) behind each function slot the
    /// expansion stamps ([`TraceRequest::function`]): the distinct ids of
    /// the rows invoked in the day window, ascending, so a slot is its id's
    /// rank. Each slot has a request, so every slot is below the trace's
    /// length.
    pub(crate) fn slot_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .functions
            .iter()
            .filter(|f| self.window_counts(f).iter().any(|&count| count > 0))
            .map(TraceFunction::id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// Parses a count or minute label: ASCII digits only, so a sign, which
/// `str::parse` would accept, makes the field malformed.
fn parse_digits(text: &str) -> Option<u32> {
    let digits = text.bytes().all(|b| b.is_ascii_digit());
    digits.then(|| text.parse().ok()).flatten()
}

/// Renders a synthetic 32-hex-character dataset hash.
fn synthetic_hash(salt: u64, value: u64) -> String {
    format!(
        "{:016x}{:016x}",
        mix64(salt ^ value),
        mix64(mix64(salt ^ value))
    )
}

impl Workload for TraceFileWorkload {
    fn name(&self) -> &'static str {
        "trace"
    }

    fn horizon(&self) -> SimDuration {
        let (start, end) = self.window();
        SimDuration::from_secs(60 * (end - start) as u64)
    }

    fn validate(&self) -> Result<(), WorkloadError> {
        if self.functions.is_empty() {
            return Err(WorkloadError::EmptyProfile);
        }
        if self.minutes == 0 {
            return Err(WorkloadError::ZeroDuration { segment: 0 });
        }
        let (start, end) = self.window();
        if start == end {
            return Err(WorkloadError::InvalidParameter {
                name: "day",
                value: f64::from(self.day),
            });
        }
        Ok(())
    }

    /// Expands the selected day's per-minute counts into a timestamped
    /// trace. Each invocation arrives at its minute plus a within-minute
    /// jitter drawn `uniform[0, 60)` from `rng` in a fixed order (minute,
    /// then file row, then repetition), so the expansion is a pure function
    /// of the file, the day and the seed. Requests are sorted by arrival,
    /// then function id; each carries the slot of the row's hash-stable
    /// function id (its rank among the window's ids, see
    /// [`TraceFunction::id`]), the benchmark that id binds to, and the object
    /// the shared [`ObjectCatalog`] assigns the id at the request's position
    /// in the sorted trace — identical rules to the synthetic workloads, so
    /// trace-file cells are directly comparable.
    ///
    /// The trace is built in place in one allocation of exactly the window's
    /// [`TraceFileWorkload::invocations`]; a window the host will not
    /// allocate that for is a [`WorkloadError::TraceTooLarge`].
    fn generate(&self, rng: &mut DeterministicRng) -> Result<Vec<TraceRequest>, WorkloadError> {
        self.validate()?;
        let (start, end) = self.window();
        let requests = self.invocations();
        let mut trace = Vec::new();
        usize::try_from(requests)
            .ok()
            .and_then(|len| trace.try_reserve_exact(len).ok())
            .ok_or(WorkloadError::TraceTooLarge { requests })?;
        let slot_ids = self.slot_ids();
        // Each row's id, slot and window counts. A row the window never
        // invokes pushes nothing, so its slot is never read.
        let rows: Vec<(u32, u32, &[u32])> = self
            .functions
            .iter()
            .map(|f| {
                let id = f.id();
                let slot = slot_ids.binary_search(&id).unwrap_or(0) as u32;
                (id, slot, self.window_counts(f))
            })
            .collect();
        for minute in 0..end - start {
            let minute_start = 60.0 * minute as f64;
            for &(id, slot, counts) in &rows {
                let benchmark = AzureWorkload::benchmark_of(id);
                for _ in 0..counts.get(minute).copied().unwrap_or(0) {
                    let jitter = rng.uniform(0.0, 60.0);
                    trace.push(TraceRequest {
                        arrival: SimTime::ZERO + SimDuration::from_secs_f64(minute_start + jitter),
                        benchmark,
                        function: slot,
                        object: 0,
                        object_size_log2: 0,
                    });
                }
            }
        }
        // Slots rank ids, so sorting by slot sorts by id. Requests that tie
        // on arrival and function are identical until their objects are
        // stamped below, so no sort order among them can show: the unstable
        // sort yields the stable one's trace.
        trace.sort_unstable_by_key(|r| (r.arrival, r.function));
        let catalog = ObjectCatalog::default();
        for (position, r) in trace.iter_mut().enumerate() {
            let id = slot_ids[r.function as usize];
            *r = TraceRequest {
                function: r.function,
                ..catalog.request(position as u64, r.arrival, r.benchmark, id)
            };
        }
        Ok(trace)
    }
}

/// The configuration behind the checked-in `data/azure_trace_sample.csv`:
/// ~200 functions at 20 req/s over one hour (60 minute columns), Zipf
/// popularity, a 20-minute diurnal cycle and burst episodes. Regenerate the
/// sample with `reproduce generate-trace --seed 42` — CI asserts
/// the regenerated bytes match the checked-in file, so the sample's
/// provenance is pinned, not folklore.
pub fn sample_workload() -> AzureWorkload {
    AzureWorkload {
        functions: 200,
        base_rps: 20.0,
        horizon: SimDuration::from_secs(3600),
        diurnal_period: SimDuration::from_secs(1200),
        step: SimDuration::from_secs(10),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::azure_generation_rng;

    fn parse(text: &str, source: &str, day: u32) -> Result<TraceFileWorkload, IngestError> {
        TraceFileWorkload::from_reader(text.as_bytes(), source, day)
    }

    const TINY: &str = "\
HashOwner,HashApp,HashFunction,Trigger,1,2,3
o1,a1,f1,http,2,0,1
o1,a1,f2,timer,0,0,0
o2,a2,f3,storage,1,3,0
";

    #[test]
    fn parses_the_schema_with_header_and_zero_rows() {
        let parsed = parse(TINY, "tiny", 1).expect("valid");
        assert_eq!(parsed.functions.len(), 3);
        assert_eq!(parsed.minutes, 3);
        assert_eq!(parsed.invocations(), 7);
        assert_eq!(parsed.functions[0].counts, vec![2, 0, 1]);
        assert_eq!(parsed.functions[1].counts, vec![0, 0, 0], "zero row kept");
        assert_eq!(parsed.functions[2].trigger, "storage");
        assert_eq!(parsed.horizon(), SimDuration::from_secs(180));
        assert_eq!(parsed.validate(), Ok(()));
        // A full day's 1440 columns span a 24-hour day-1 horizon.
        let full_day = format!("o1,a1,f1,http{}\n", ",1".repeat(MINUTES_PER_DAY as usize));
        let full = parse(&full_day, "full", 1).expect("valid");
        assert_eq!(full.horizon(), SimDuration::from_secs(86_400));
        assert_eq!(full.invocations(), u64::from(MINUTES_PER_DAY));
    }

    #[test]
    fn headerless_and_ragged_rows_are_tolerated() {
        // No header; the second row is missing its trailing columns (the
        // dataset's trailing-day shape) and one count field is empty.
        let text = "o1,a1,f1,http,1,2,3\no2,a2,f2,timer,4\no3,a3,f3,http,,1,2\n";
        let parsed = parse(text, "ragged", 1).expect("valid");
        assert_eq!(parsed.minutes, 3);
        assert_eq!(parsed.functions[1].counts, vec![4, 0, 0], "zero-padded");
        assert_eq!(parsed.functions[2].counts, vec![0, 1, 2], "empty reads 0");
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        assert_eq!(
            parse("", "empty", 1).expect_err("empty"),
            IngestError::EmptyFile
        );
        assert_eq!(
            parse("HashOwner,HashApp,HashFunction,Trigger,1\n", "h", 1).expect_err("header only"),
            IngestError::EmptyFile
        );
        assert_eq!(
            parse("o1,a1,f1\n", "short", 1).expect_err("short row"),
            IngestError::MissingColumns { line: 1, found: 3 }
        );
        assert_eq!(
            parse("o1,a1,f1,http,1,x,3\n", "bad", 1).expect_err("bad count"),
            IngestError::MalformedCount {
                line: 1,
                column: 2,
                value: "x".into()
            }
        );
        let err = parse("o1,a1,f1,http,\"1\n", "quote", 1).expect_err("unterminated quote");
        assert!(matches!(err, IngestError::Csv(_)));
        assert!(err.to_string().contains("line 1"));
        assert_eq!(
            parse(TINY, "tiny", 2).expect_err("day 2 of a 3-minute file"),
            IngestError::DayOutOfRange { day: 2, minutes: 3 }
        );
        let day_zero = parse(TINY, "tiny", 0).expect_err("day 0");
        assert_eq!(day_zero, IngestError::DayZero);
        assert!(
            day_zero.to_string().contains("1-based"),
            "day 0 gets its own message, not the out-of-range one: {day_zero}"
        );
        // A huge day is out of range, not a u32 multiply overflow.
        assert_eq!(
            parse(TINY, "tiny", u32::MAX).expect_err("huge day"),
            IngestError::DayOutOfRange {
                day: u32::MAX,
                minutes: 3
            }
        );
        let missing = TraceFileWorkload::from_csv_path("/nonexistent/trace.csv", 1)
            .expect_err("missing file");
        assert!(matches!(missing, IngestError::Io { .. }));
        assert!(missing.to_string().contains("/nonexistent/trace.csv"));
        // Every header column after the metadata is a minute label, so a
        // memory-percentile column is as unknown as any other word.
        for (header, name) in [
            ("HashOwner,HashApp,HashFunction,Trigger,1,Bogus", "Bogus"),
            (
                "HashOwner,HashApp,HashFunction,Trigger,1,AverageAllocatedMb_pct99",
                "AverageAllocatedMb_pct99",
            ),
        ] {
            let text = format!("{header}\no1,a1,f1,http,1\n");
            assert_eq!(
                parse(&text, "hdr", 1).expect_err("bad header"),
                IngestError::UnknownHeaderColumn {
                    column: 2,
                    name: name.into()
                },
                "{header}"
            );
        }
        // Only the first record may be a header: two concatenated files put
        // a second one mid-file, and a headerless file cannot gain one late.
        let twice = format!("{TINY}{TINY}");
        let err = parse(&twice, "twice", 1).expect_err("second header");
        assert_eq!(err, IngestError::MisplacedHeader { line: 5 });
        assert!(err.to_string().contains("line 5"), "{err}");
        assert_eq!(
            parse(&format!("o1,a1,f1,http,1\n\n{TINY}"), "late", 1).expect_err("late header"),
            IngestError::MisplacedHeader { line: 3 }
        );
        // Counts and minute labels are ASCII digits: the sign `str::parse`
        // accepts would be lost on re-emission.
        assert_eq!(
            parse("o,a,f,http,+5,1\n", "signed", 1).expect_err("signed count"),
            IngestError::MalformedCount {
                line: 1,
                column: 1,
                value: "+5".into()
            }
        );
        assert_eq!(
            parse(
                "HashOwner,HashApp,HashFunction,Trigger,+1\no,a,f,http,1\n",
                "signed",
                1
            )
            .expect_err("signed minute label"),
            IngestError::UnknownHeaderColumn {
                column: 1,
                name: "+1".into()
            }
        );
        // A line that is not UTF-8 names the source label and its line.
        let bytes: &[u8] = b"o1,a1,f1,http,1\no2,a2,f2,http,\xff\n";
        let err = TraceFileWorkload::from_reader(bytes, "bytes.csv", 1).expect_err("not UTF-8");
        assert!(matches!(err, IngestError::Io { ref path, .. } if path == "bytes.csv"));
        assert!(
            err.to_string()
                .starts_with("cannot read trace file bytes.csv: line 2: "),
            "{err}"
        );
    }

    #[test]
    fn expansion_is_deterministic_sorted_and_count_exact() {
        let parsed = parse(TINY, "tiny", 1).expect("valid");
        let a = parsed
            .generate(&mut DeterministicRng::seeded(9))
            .expect("valid");
        let b = parsed
            .generate(&mut DeterministicRng::seeded(9))
            .expect("valid");
        assert_eq!(a, b, "same seed, same expansion");
        assert_eq!(a.len() as u64, parsed.invocations());
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a
            .iter()
            .all(|r| r.arrival < SimTime::ZERO + parsed.horizon()));
        // Identities are hash-stable: slots rank the invoked rows' ids, and
        // the benchmark binds to the id behind the slot.
        let ids = parsed.slot_ids();
        let mut invoked = [function_id("f1"), function_id("f3")];
        invoked.sort_unstable();
        assert_eq!(ids, invoked, "f2 is never invoked, so it has no slot");
        assert!(a
            .iter()
            .all(|r| r.benchmark == AzureWorkload::benchmark_of(ids[r.function as usize])));
        let f1 = function_id("f1");
        assert_eq!(
            a.iter().filter(|r| ids[r.function as usize] == f1).count(),
            3
        );
        // A different seed moves the jitter but not the per-minute counts.
        let c = parsed
            .generate(&mut DeterministicRng::seeded(10))
            .expect("valid");
        assert_eq!(c.len(), a.len());
        assert_ne!(a, c);
    }

    /// The expansion before it was built in place, kept as a reference:
    /// `(arrival, id, draw)` tuples stable-sorted, then stamped by position,
    /// each with the rank of its id among the ids the trace holds.
    fn staged_expansion(w: &TraceFileWorkload, rng: &mut DeterministicRng) -> Vec<TraceRequest> {
        let (start, end) = w.window();
        let ids: Vec<u32> = w.functions.iter().map(TraceFunction::id).collect();
        let mut arrivals: Vec<(SimTime, u32, u64)> = Vec::new();
        let mut draw = 0u64;
        for minute in start..end {
            let minute_start = 60.0 * (minute - start) as f64;
            for (row, function) in w.functions.iter().enumerate() {
                for _ in 0..function.counts[minute] {
                    let jitter = rng.uniform(0.0, 60.0);
                    arrivals.push((
                        SimTime::ZERO + SimDuration::from_secs_f64(minute_start + jitter),
                        ids[row],
                        draw,
                    ));
                    draw += 1;
                }
            }
        }
        arrivals.sort_by_key(|&(arrival, function, draw)| (arrival, function, draw));
        let mut slot_ids: Vec<u32> = arrivals.iter().map(|&(_, id, _)| id).collect();
        slot_ids.sort_unstable();
        slot_ids.dedup();
        let catalog = ObjectCatalog::default();
        arrivals
            .into_iter()
            .enumerate()
            .map(|(position, (arrival, id, _))| {
                let benchmark = AzureWorkload::benchmark_of(id);
                TraceRequest {
                    function: slot_ids.binary_search(&id).expect("listed") as u32,
                    ..catalog.request(position as u64, arrival, benchmark, id)
                }
            })
            .collect()
    }

    /// Over random small files (rows sharing function hashes, sparse and
    /// ragged counts, any day of up to three), the in-place expansion is the
    /// staged one, request for request.
    #[test]
    fn in_place_expansion_matches_the_staged_sort() {
        for case in 0..64u64 {
            let mut rng = DeterministicRng::seeded(0x1E55_0000 ^ case);
            let width = 1 + rng.next_index(3 * MINUTES_PER_DAY as usize);
            let mut text = String::new();
            for _ in 0..1 + rng.next_index(6) {
                let function = rng.next_index(4);
                text.push_str(&format!("o,a,f{function},http"));
                for _ in 0..1 + rng.next_index(width) {
                    let count = if rng.bernoulli(0.1) {
                        1 + rng.next_index(5)
                    } else {
                        0
                    };
                    text.push_str(&format!(",{count}"));
                }
                text.push('\n');
            }
            let minutes = text.lines().map(|l| l.split(',').count() - 4).max();
            let days = minutes.expect("rows").div_ceil(MINUTES_PER_DAY as usize);
            let day = 1 + rng.next_index(days) as u32;
            let w = parse(&text, "random", day).expect("valid");
            let seed = rng.next_u64();
            let in_place = w
                .generate(&mut DeterministicRng::seeded(seed))
                .expect("valid");
            assert_eq!(in_place.len() as u64, w.invocations(), "case {case}");
            assert_eq!(
                in_place,
                staged_expansion(&w, &mut DeterministicRng::seeded(seed)),
                "case {case}"
            );
        }
    }

    /// `day` is a public field, so it can name any day after parsing. Day 0
    /// or a day past the file is an empty window: no invocations, a zero
    /// horizon, and a typed error from `generate`, never a panic or a
    /// wrapped window.
    #[test]
    fn days_outside_the_file_are_empty_windows() {
        let mut w = parse("o,a,f,http,1,2\n", "two", 1).expect("valid");
        assert_eq!(w.invocations(), 3);
        assert_eq!(w.horizon(), SimDuration::from_secs(120));
        for day in [0, 2, 3, u32::MAX] {
            w.day = day;
            assert_eq!(w.invocations(), 0, "day {day}");
            assert_eq!(w.horizon(), SimDuration::ZERO, "day {day}");
            assert!(w.slot_ids().is_empty(), "day {day}");
            assert_eq!(
                w.generate(&mut DeterministicRng::seeded(1)),
                Err(WorkloadError::InvalidParameter {
                    name: "day",
                    value: f64::from(day)
                }),
                "day {day}"
            );
        }
    }

    /// A caller-built row shorter than `minutes` reads its missing minutes
    /// as zero, exactly as the row `from_reader` pads would.
    #[test]
    fn short_rows_read_missing_minutes_as_zero() {
        let padded = parse("o,a,f,http,1,0,0,0,0\n", "padded", 1).expect("valid");
        let mut short = padded.clone();
        short.functions[0].counts = vec![1];
        assert_eq!(short.minutes, 5);
        assert_eq!(short.invocations(), 1);
        assert_eq!(short.slot_ids(), vec![function_id("f")]);
        let trace = short
            .generate(&mut DeterministicRng::seeded(1))
            .expect("valid");
        assert_eq!(trace.len(), 1);
        assert_eq!(Ok(trace), padded.generate(&mut DeterministicRng::seeded(1)));
    }

    /// A day whose requests the host will not allocate is a typed error,
    /// not an abort: two rows of `u32::MAX` invocations in each of 1440
    /// minutes are 1.24 × 10¹³ requests, about 180 TiB, more than a 47-bit
    /// address space holds.
    #[test]
    fn a_day_too_large_to_hold_is_a_typed_error() {
        let row = |function: &str| format!("o,a,{function},http{}\n", ",4294967295".repeat(1440));
        let text = row("f1") + &row("f2");
        let w = parse(&text, "huge", 1).expect("valid");
        let requests = 2 * 1440 * u64::from(u32::MAX);
        assert_eq!(w.invocations(), requests);
        let err = w
            .generate(&mut DeterministicRng::seeded(1))
            .expect_err("too large to hold");
        assert_eq!(err, WorkloadError::TraceTooLarge { requests });
        assert!(err.to_string().contains("12369505809600 requests"), "{err}");
    }

    #[test]
    fn function_ids_are_stable_under_row_reordering() {
        let reordered = "\
HashOwner,HashApp,HashFunction,Trigger,1,2,3
o2,a2,f3,storage,1,3,0
o1,a1,f1,http,2,0,1
o1,a1,f2,timer,0,0,0
";
        let a = parse(TINY, "tiny", 1).expect("valid");
        let b = parse(reordered, "tiny", 1).expect("valid");
        let ids = |w: &TraceFileWorkload| {
            let mut ids: Vec<u32> = w.functions.iter().map(TraceFunction::id).collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(ids(&a), ids(&b));
        // Slots rank ids, so row order does not move them.
        assert_eq!(a.slot_ids(), b.slot_ids());
        // The reordered file expands to the same number of arrivals per
        // function (jitter draws differ because the draw order changed).
        let count = |w: &TraceFileWorkload, trace: &[TraceRequest], f: &str| {
            let ids = w.slot_ids();
            trace
                .iter()
                .filter(|r| ids[r.function as usize] == function_id(f))
                .count()
        };
        let ta = a.generate(&mut DeterministicRng::seeded(3)).expect("valid");
        let tb = b.generate(&mut DeterministicRng::seeded(3)).expect("valid");
        for (f, expected) in [("f1", 3), ("f2", 0), ("f3", 4)] {
            assert_eq!(count(&a, &ta, f), expected, "{f}");
            assert_eq!(count(&b, &tb, f), expected, "{f}");
        }
    }

    #[test]
    fn synthetic_bucketing_round_trips_through_the_csv_schema() {
        let azure = AzureWorkload {
            functions: 8,
            base_rps: 30.0,
            horizon: SimDuration::from_secs(150), // 2.5 minutes -> 3 columns
            diurnal_period: SimDuration::from_secs(60),
            ..AzureWorkload::default()
        };
        let bucketed =
            TraceFileWorkload::from_workload(&azure, &mut azure_generation_rng(5), "roundtrip.csv")
                .expect("valid workload");
        assert_eq!(bucketed.minutes, 3);
        assert_eq!(bucketed.functions.len(), 8);
        let csv = bucketed.to_csv();
        let parsed = parse(&csv, "roundtrip.csv", 1).expect("own output parses");
        assert_eq!(parsed, bucketed, "parse(to_csv(w)) == w");
        assert_eq!(parsed.to_csv(), csv, "re-emission is byte-identical");
        // And the expansions agree bit for bit.
        let a = bucketed
            .generate(&mut DeterministicRng::seeded(11))
            .expect("valid");
        let b = parsed
            .generate(&mut DeterministicRng::seeded(11))
            .expect("valid");
        assert_eq!(a, b);
        assert_eq!(a.len() as u64, bucketed.invocations());
    }

    #[test]
    fn sample_workload_is_valid_and_sample_sized() {
        let sample = sample_workload();
        assert_eq!(sample.validate(), Ok(()));
        assert_eq!(sample.functions, 200);
        assert_eq!(sample.horizon, SimDuration::from_secs(3600));
    }
}
