//! `odbgc generate` — write an OO7 application trace to disk.

use odbgc_oo7::Oo7App;

use crate::flags::Flags;
use crate::CliError;

/// Writes an OO7 application trace to disk as a tracefile, whatever the
/// file's extension.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args)?;
    let out = flags.require("out")?;
    let conn: u32 = flags.get_or("conn", 3)?;
    let seed: u64 = flags.get_or("seed", 1)?;
    let params_name = flags.get("params");
    let style = flags.get("style");
    flags.finish()?;

    let db = crate::spec::db_scale(params_name.as_deref())?;
    let params = crate::spec::build_params(db, conn, style.as_deref())?;
    let (trace, chars) = Oo7App::standard(params, seed).generate();
    let bytes = odbgc_tracefile::encode(&trace);
    std::fs::write(&out, &bytes).map_err(|e| CliError(format!("cannot write {out:?}: {e}")))?;
    Ok(format!(
        "wrote {out} ({} bytes): {} events, {} initial live objects, {:.2} MB live, avg object {:.0} B",
        bytes.len(),
        trace.len(),
        chars.total_objects(),
        chars.total_bytes() as f64 / 1_048_576.0,
        chars.avg_object_size(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn generates_a_readable_trace_file() {
        let dir = std::env::temp_dir().join("odbgc-cli-test-gen");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.odbgc");
        let out = run(&argv(&format!(
            "--out {} --params tiny --conn 2 --seed 9",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("events"));
        let trace = odbgc_tracefile::decode(&std::fs::read(&path).unwrap()).unwrap();
        assert!(trace.len() > 100);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writes_a_tracefile_whatever_the_extension() {
        let dir =
            std::env::temp_dir().join(format!("odbgc-cli-test-gen-ext-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut written = Vec::new();
        for name in ["t.odbgc", "t.otb", "t.txt"] {
            let path = dir.join(name);
            run(&argv(&format!(
                "--out {} --params tiny --conn 2 --seed 9",
                path.display()
            )))
            .unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(bytes[..4], odbgc_tracefile::MAGIC, "{name}");
            written.push(bytes);
        }
        assert!(written.windows(2).all(|w| w[0] == w[1]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_format_flag_errors() {
        // There is one file format, so `--format` is no option at all.
        for value in ["text", "binary"] {
            let err = run(&argv(&format!("--out x --format {value}"))).unwrap_err();
            assert!(err.to_string().contains("unknown flag --format"), "{err}");
        }
    }

    #[test]
    fn out_of_range_conn_is_refused() {
        for (args, message) in [
            (
                "--conn 0",
                "--conn 0: small-prime connectivity must be in 1..=19",
            ),
            (
                "--params small --conn 20",
                "--conn 20: small connectivity must be in 1..=19",
            ),
            (
                "--params tiny --conn 9",
                "--conn 9: tiny connectivity must be in 1..=5",
            ),
            (
                "--params tiny --conn 0",
                "--conn 0: tiny connectivity must be in 1..=5",
            ),
        ] {
            let err = run(&argv(&format!("--out never-written.odbgc {args}"))).unwrap_err();
            assert_eq!(err.to_string(), message, "{args}");
        }
    }

    #[test]
    fn missing_out_flag_errors() {
        assert!(run(&argv("--conn 3"))
            .unwrap_err()
            .to_string()
            .contains("--out"));
    }
}
