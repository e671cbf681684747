//! Output helpers shared by the figure binaries.

use bartercast_util::csv::CsvWriter;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;

/// Directory experiment CSVs are written to (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("BARTERCAST_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Create `results/<name>.csv` with the given header.
pub fn csv(name: &str, header: &[&str]) -> CsvWriter<BufWriter<File>> {
    let path: PathBuf = results_dir().join(format!("{name}.csv"));
    CsvWriter::create(&path, header).unwrap_or_else(|e| panic!("create {}: {e}", path.display()))
}

/// Announce a written file on stdout.
pub fn announce(name: &str) {
    let path: PathBuf = results_dir().join(format!("{name}.csv"));
    println!("wrote {}", path.display());
}

/// Write a series of `(x, y)` rows to `results/<name>.csv`.
pub fn write_xy(name: &str, header: &[&str], rows: &[(f64, f64)]) {
    let mut w = csv(name, header);
    for &(x, y) in rows {
        w.row([format!("{x:.6}"), format!("{y:.6}")])
            .expect("write row");
    }
    w.finish().expect("flush csv");
    announce(name);
}
