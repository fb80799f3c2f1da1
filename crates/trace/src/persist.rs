//! The snapshot store's JSON files: write a value to a file and read it
//! back, with errors that name the file.

use crate::store::StoreError;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::path::Path;

/// Writes `value` to `path` as JSON.
pub(crate) fn save_json<T: Serialize>(value: &T, path: &Path) -> Result<(), StoreError> {
    let text = serde_json::to_string(value).map_err(|e| StoreError::Corrupt {
        file: path.to_owned(),
        detail: e.to_string(),
    })?;
    std::fs::write(path, text).map_err(|source| StoreError::Io {
        file: path.to_owned(),
        source,
    })
}

/// Reads a value back from `path`: a file that cannot be opened is an I/O
/// error, one that does not decode as `T` is corrupt.
pub(crate) fn load_json<T: DeserializeOwned>(path: &Path) -> Result<T, StoreError> {
    let file = std::fs::File::open(path).map_err(|source| StoreError::Io {
        file: path.to_owned(),
        source,
    })?;
    serde_json::from_reader(file).map_err(|e| StoreError::Corrupt {
        file: path.to_owned(),
        detail: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScheduleLog, Trace, ValueLog};
    use dd_sim::{Event, EventMeta, RecordedDecision, TaskId, Value, VarId};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "dd-trace-persist-{}-{name}.json",
            std::process::id()
        ));
        p
    }

    #[test]
    fn trace_round_trips_through_disk() {
        let trace = Trace::from_events(vec![(
            EventMeta { step: 0, time: 3 },
            Event::Read {
                task: TaskId(0),
                var: VarId(1),
                value: Value::Bytes(vec![1, 2, 3]),
                site: "s".into(),
            },
        )]);
        let path = tmp("trace");
        save_json(&trace, &path).unwrap();
        let back: Trace = load_json(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(trace, back);
    }

    #[test]
    fn schedule_log_round_trips_through_disk() {
        let log = ScheduleLog {
            decisions: vec![RecordedDecision {
                kind: dd_sim::DecisionKind::NextTask,
                chosen: TaskId(4),
            }]
            .into(),
        };
        let path = tmp("sched");
        save_json(&log, &path).unwrap();
        let back: ScheduleLog = load_json(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(log, back);
    }

    #[test]
    fn value_log_round_trips_through_disk() {
        let trace = Trace::from_events(vec![(
            EventMeta { step: 0, time: 0 },
            Event::RngDraw {
                task: TaskId(2),
                value: 99,
                site: "s".into(),
            },
        )]);
        let log = ValueLog::from_trace(&trace);
        let path = tmp("values");
        save_json(&log, &path).unwrap();
        let back: ValueLog = load_json(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(log, back);
    }

    #[test]
    fn missing_file_reports_io_error() {
        let path = Path::new("/nonexistent/definitely/missing.json");
        let err = load_json::<Trace>(path).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
        assert!(err.to_string().contains("missing.json"), "{err}");
    }

    #[test]
    fn garbage_reports_codec_error() {
        let path = tmp("garbage");
        std::fs::write(&path, b"{not json").unwrap();
        let err = load_json::<Trace>(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, StoreError::Corrupt { .. }));
        assert!(
            err.to_string().contains(&path.display().to_string()),
            "{err}"
        );
    }
}
