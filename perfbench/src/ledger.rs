//! Work-counter repeatability: the deterministic counters an operation
//! produces must read the same every time the same code runs it, within a
//! run and across runs. A run keeps the FNV-1a digest of each operation's
//! canonical counter text in memory; when it has finished measuring, it
//! compares them with the digests earlier runs kept in the checkout, one
//! file per source-tree digest, so a code change starts a fresh ledger.

use std::collections::BTreeMap;
use std::path::Path;

#[derive(Default)]
pub struct Ledger {
    entries: BTreeMap<String, u64>,
    /// Keys whose counters differed from the recorded ones.
    pub mismatches: Vec<String>,
}

impl Ledger {
    /// Records `counters` for `key` on first sight in this run; afterwards
    /// reports whether they repeat exactly (a miss is kept in
    /// `mismatches`).
    pub fn check(&mut self, key: &str, counters: &str) -> bool {
        let digest = islaris_obs::fnv1a(counters.as_bytes());
        match self.entries.get(key) {
            Some(&d) if d == digest => true,
            Some(_) => {
                self.mismatches.push(key.to_string());
                false
            }
            None => {
                self.entries.insert(key.to_string(), digest);
                true
            }
        }
    }

    /// Compares this run's records with those earlier runs kept at `path`
    /// (a miss is kept in `mismatches`), adds the new ones, and writes the
    /// file back through a temporary file and a rename. Called after
    /// measuring, so loading the file does not count in the run's memory.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors writing the file.
    pub fn settle(&mut self, path: &Path) -> std::io::Result<()> {
        let mut kept: BTreeMap<String, u64> = std::fs::read_to_string(path)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| {
                let (k, v) = l.rsplit_once(' ')?;
                Some((k.to_string(), u64::from_str_radix(v, 16).ok()?))
            })
            .collect();
        let mut added = false;
        for (k, d) in &self.entries {
            match kept.get(k) {
                Some(old) if old != d => self.mismatches.push(k.clone()),
                Some(_) => {}
                None => {
                    kept.insert(k.clone(), *d);
                    added = true;
                }
            }
        }
        if !added {
            return Ok(());
        }
        let mut text = String::new();
        for (k, v) in &kept {
            text.push_str(&format!("{k} {v:016x}\n"));
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_pass_and_changes_are_counted_within_and_across_runs() {
        let dir = std::env::temp_dir().join(format!("perfbench-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("work.ledger");
        let _ = std::fs::remove_file(&path);

        let mut first = Ledger::default();
        assert!(first.check("case/rbit", "steps=10 queries=2"));
        assert!(first.check("case/rbit", "steps=10 queries=2"));
        assert!(!first.check("case/rbit", "steps=12 queries=2"));
        assert_eq!(first.mismatches, vec!["case/rbit".to_string()]);
        first.settle(&path).unwrap();

        let mut second = Ledger::default();
        assert!(second.check("case/rbit", "steps=11 queries=2"));
        assert!(second.check("case/hvc", "steps=3"));
        second.settle(&path).unwrap();
        assert_eq!(second.mismatches, vec!["case/rbit".to_string()]);

        let mut third = Ledger::default();
        third.check("case/hvc", "steps=3");
        third.settle(&path).unwrap();
        assert!(third.mismatches.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
