//! Synthetic inputs for the MapReduce jobs, the only workloads that
//! execute records.
//!
//! * [`dictionary`] — random text drawn from a 1000-word UNIX-style
//!   dictionary (WordCount / Sort working sets);
//! * [`teragen`] — TeraGen-style 100-byte records with 10-byte keys.
//!
//! The Spark cases are calibrated stage specs and take no generated
//! input.

pub mod dictionary;
pub mod teragen;

pub use dictionary::{random_lines, unix_dictionary, DICTIONARY_SIZE};
pub use teragen::{teragen_records, TeraRecord, TERA_RECORD_BYTES};
