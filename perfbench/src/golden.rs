//! Known answers: the committed golden certificates under `tests/golden/`.

use std::collections::BTreeMap;
use std::path::Path;

use islaris_cases::ALL_CASES;
use islaris_core::{render_certificate, Report};

/// Golden certificate files by case slug.
pub struct Goldens(BTreeMap<&'static str, String>);

/// The golden file of a case, named as `tests/golden.rs` names it
/// (`<name>_<isa>`; the RISC-V cases are the `_riscv` slugs).
fn golden_file(name: &str, slug: &str) -> String {
    let isa = if slug.ends_with("_riscv") {
        "rv"
    } else {
        "arm"
    };
    format!(
        "{}_{isa}.cert",
        name.to_lowercase().replace(['.', ' '], "_")
    )
}

impl Goldens {
    /// Loads every case's golden file from `<root>/tests/golden`.
    ///
    /// # Errors
    ///
    /// Names the first file that cannot be read.
    pub fn load(root: &Path) -> Result<Goldens, String> {
        let mut map = BTreeMap::new();
        for c in ALL_CASES {
            let path = root.join("tests/golden").join(golden_file(c.name, c.slug));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("golden file {}: {e}", path.display()))?;
            map.insert(c.slug, text);
        }
        Ok(Goldens(map))
    }

    /// Whether a verification report renders exactly to the case's golden
    /// file (one `; block` comment and certificate per block).
    #[must_use]
    pub fn matches_report(&self, slug: &str, report: &Report) -> bool {
        let mut out = String::new();
        for (i, b) in report.blocks.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&format!("; block {:#x} spec {}\n", b.addr, b.spec));
            out.push_str(&render_certificate(&b.cert));
        }
        self.0.get(slug).is_some_and(|g| *g == out)
    }

    /// Whether the rendered certificates of a daemon answer are the
    /// case's golden certificates, block for block.
    #[must_use]
    pub fn matches_certs(&self, slug: &str, certs: &[&str]) -> bool {
        let Some(golden) = self.0.get(slug) else {
            return false;
        };
        let chunks: Vec<String> = golden
            .split("\n\n")
            .map(|chunk| {
                chunk
                    .lines()
                    .filter(|l| !l.trim_start().starts_with(';'))
                    .collect::<Vec<_>>()
                    .join("\n")
            })
            .filter(|c| !c.trim().is_empty())
            .collect();
        chunks.len() == certs.len()
            && chunks
                .iter()
                .zip(certs)
                .all(|(g, c)| g.trim_end() == c.trim_end())
    }
}
