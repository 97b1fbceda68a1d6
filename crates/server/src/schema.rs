//! Dataset schemas: what kind of objects an index holds.
//!
//! An index directory records its schema in a one-line `cli.schema` file
//! at build time (written by `spb-cli build`). The server reads it to
//! pick the concrete `SpbTree<O, D>` instantiation behind the type-erased
//! [`IndexService`], and sends the same line to clients in the `Pong`
//! handshake so they can encode query text into object bytes without any
//! out-of-band knowledge.

use std::io;
use std::path::Path;

use spb_core::SpbTree;
use spb_metric::{EditDistance, FloatVec, LpNorm, MetricObject, Word};

use crate::service::{IndexService, TreeService};

/// The dataset schema an index was built over.
#[derive(Clone, Debug, PartialEq)]
pub enum Schema {
    /// One word per line; edit distance with the given maximum length.
    Words {
        /// `d⁺` (maximum word length).
        max_len: usize,
    },
    /// One CSV row of `f32` per line; Lᵖ-norm.
    Vectors {
        /// The norm exponent (2 or 5).
        p: u32,
        /// Dimensionality.
        dim: usize,
    },
}

impl Schema {
    /// Serialises to the `cli.schema` line format.
    pub fn to_line(&self) -> String {
        match self {
            Schema::Words { max_len } => format!("words {max_len}"),
            Schema::Vectors { p, dim } => format!("vectors {p} {dim}"),
        }
    }

    /// Parses the `cli.schema` line format.
    pub fn from_line(line: &str) -> Result<Schema, String> {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["words", max_len] => Ok(Schema::Words {
                max_len: max_len.parse().map_err(|_| "bad max_len".to_owned())?,
            }),
            ["vectors", p, dim] => Ok(Schema::Vectors {
                p: p.parse().map_err(|_| "bad p".to_owned())?,
                dim: dim.parse().map_err(|_| "bad dim".to_owned())?,
            }),
            _ => Err(format!("unrecognised schema line {line:?}")),
        }
    }

    /// Encodes one query/object in the schema's *text* form (a word, or a
    /// comma-separated vector row) into the object's wire bytes.
    pub fn encode_text(&self, text: &str) -> Result<Vec<u8>, String> {
        match self {
            Schema::Words { .. } => Ok(Word::new(text.trim()).encoded()),
            Schema::Vectors { dim, .. } => {
                let coords = text
                    .split(',')
                    .map(|c| c.trim().parse::<f32>().map_err(|e| format!("bad f32: {e}")))
                    .collect::<Result<Vec<f32>, String>>()?;
                if coords.len() != *dim {
                    return Err(format!(
                        "vector has {} coordinate(s), index expects {dim}",
                        coords.len()
                    ));
                }
                Ok(FloatVec::new(coords).encoded())
            }
        }
    }

    /// Renders encoded object bytes back into the schema's text form
    /// (inverse of [`encode_text`](Schema::encode_text), for display).
    pub fn render(&self, obj: &[u8]) -> Result<String, String> {
        match self {
            Schema::Words { .. } => {
                let w = Word::try_decode(obj).ok_or("malformed word bytes")?;
                Ok(w.as_str().to_owned())
            }
            Schema::Vectors { .. } => {
                let v = FloatVec::try_decode(obj).ok_or("malformed vector bytes")?;
                Ok(v.coords()
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(","))
            }
        }
    }
}

/// The schema file's name inside an index directory.
pub fn schema_path(index: &Path) -> std::path::PathBuf {
    index.join("cli.schema")
}

/// The schema `spb-cli build` recorded in an index directory.
pub fn read_schema(index: &Path) -> io::Result<Schema> {
    let path = schema_path(index);
    let line = std::fs::read_to_string(&path).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("read {path:?}: {e} (is this an spb-cli index?)"),
        )
    })?;
    Schema::from_line(line.trim()).map_err(io::Error::other)
}

/// Opens an index directory as a type-erased service, reading the
/// schema from `cli.schema`.
///
/// `cache_pages` must match whatever an in-process comparison run uses:
/// per-query [`QueryStats`](spb_core::QueryStats) are computed against a
/// simulated cold cache of this capacity, so byte-identical stats require
/// identical capacity (the CLI and the E2E tests both use 32).
pub fn open_index(index: &Path, cache_pages: usize) -> io::Result<Box<dyn IndexService>> {
    let schema = read_schema(index)?;
    Ok(match &schema {
        Schema::Words { max_len } => {
            let tree = SpbTree::open(index, EditDistance::new(*max_len), cache_pages)?;
            Box::new(TreeService::new(tree, schema))
        }
        Schema::Vectors { p, dim } => {
            let tree = SpbTree::open(index, LpNorm::new(f64::from(*p), *dim, 1.0), cache_pages)?;
            Box::new(TreeService::new(tree, schema))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_line_roundtrip() {
        for s in [
            Schema::Words { max_len: 34 },
            Schema::Vectors { p: 5, dim: 16 },
        ] {
            assert_eq!(Schema::from_line(&s.to_line()).unwrap(), s);
        }
        assert!(Schema::from_line("nonsense").is_err());
    }

    #[test]
    fn text_encoding_roundtrips_through_render() {
        let words = Schema::Words { max_len: 20 };
        let b = words.encode_text("carrot").unwrap();
        assert_eq!(words.render(&b).unwrap(), "carrot");

        let vecs = Schema::Vectors { p: 2, dim: 3 };
        let b = vecs.encode_text("0.5, 0.25, 1").unwrap();
        assert_eq!(vecs.render(&b).unwrap(), "0.5,0.25,1");
        assert!(vecs.encode_text("0.5,0.25").is_err(), "wrong dimension");
        assert!(vecs.encode_text("a,b,c").is_err(), "not numbers");
    }
}
