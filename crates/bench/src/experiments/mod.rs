//! One module per reproduced table/figure, and the [`FIGURES`] table
//! the `figures` binary dispatches on (see the crate docs for the
//! index).

pub mod ablation;
pub mod extensions;
pub mod fig1;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod mixed;
pub mod motivation;
pub mod strawman;
pub mod table1;

use crate::scale::Scale;

/// A figure's report: a pure function from a scale to printable text.
pub type Report = fn(Scale) -> String;

/// Every report, under the name the `figures` binary takes, in paper
/// order.
pub const FIGURES: [(&str, Report); 14] = [
    ("table1", table1::report),
    ("fig2", fig2::report),
    ("fig1", fig1::report),
    ("strawman", strawman::report),
    ("motivation", motivation::report),
    ("fig4", fig4::report),
    ("fig5", fig5::report),
    ("fig6", fig6::report),
    ("fig7a", fig7::report_7a),
    ("fig7b", fig7::report_7b),
    ("fig8", fig8::report),
    ("ablation", ablation::report),
    ("mixed", mixed::report),
    ("extensions", extensions::report),
];

/// Resolves figure names to their reports, in the order given; `all`
/// stands for every figure in paper order. No name, or an unknown one,
/// is an error that lists the valid names.
pub fn select(names: &[String]) -> Result<Vec<(&'static str, Report)>, String> {
    let valid = || {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        format!("valid names: {} all", names.join(" "))
    };
    if names.is_empty() {
        return Err(format!("name at least one figure; {}", valid()));
    }
    let mut chosen = Vec::new();
    for name in names {
        match FIGURES.iter().find(|(known, _)| known == name) {
            Some(&figure) => chosen.push(figure),
            None if name == "all" => chosen.extend(FIGURES),
            None => return Err(format!("unknown figure {name:?}; {}", valid())),
        }
    }
    Ok(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(args: &str) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.split_whitespace().map(str::to_owned).collect();
        select(&args).map(|chosen| chosen.into_iter().map(|(name, _)| name).collect())
    }

    #[test]
    fn every_name_dispatches_to_its_own_entry() {
        for (name, _) in FIGURES {
            assert_eq!(names(name).unwrap(), [name]);
        }
        assert_eq!(names("fig4 table1").unwrap(), ["fig4", "table1"]);
    }

    #[test]
    fn all_is_every_figure_in_paper_order() {
        assert_eq!(
            names("all").unwrap(),
            [
                "table1",
                "fig2",
                "fig1",
                "strawman",
                "motivation",
                "fig4",
                "fig5",
                "fig6",
                "fig7a",
                "fig7b",
                "fig8",
                "ablation",
                "mixed",
                "extensions",
            ]
        );
    }

    #[test]
    fn an_unknown_or_missing_name_lists_the_valid_ones() {
        for args in ["fig3", "fig4 --jobs", ""] {
            let err = names(args).unwrap_err();
            assert!(
                err.contains("valid names: table1 fig2 fig1 ") && err.ends_with(" extensions all"),
                "{args:?}: {err}"
            );
        }
        assert!(names("fig3")
            .unwrap_err()
            .starts_with("unknown figure \"fig3\""));
    }
}
