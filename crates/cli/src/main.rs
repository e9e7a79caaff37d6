//! The `recurs` command-line tool. See [`recurs_cli::USAGE`].
//!
//! Exit codes: 0 — the run completed (reached the fixpoint); 2 — a budget
//! or Ctrl-C truncated the run (the printed answers are a sound
//! under-approximation); 1 — usage, file, program, or engine error.

use recurs_cli::{execute, parse_args, Command, USAGE};
use recurs_datalog::govern::CancelToken;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let source = match &cmd {
        Command::Help => String::new(),
        Command::Classify { file }
        | Command::Plan { file, .. }
        | Command::Run { file, .. }
        | Command::Figure { file, .. }
        | Command::Serve { file, .. }
        | Command::Batch { file, .. } => match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {file}: {e}");
                std::process::exit(1);
            }
        },
    };
    if matches!(cmd, Command::Help) {
        println!("{USAGE}");
        return;
    }
    if let Command::Serve { opts, net, .. } = &cmd {
        // Streaming command: replies go out frame by frame (or line by
        // line), so it bypasses the buffered `execute` path. SIGTERM and
        // Ctrl-C drain the transport gracefully.
        let token = CancelToken::new();
        recurs_cli::signals::install(token.clone());
        match net {
            Some((addr, config)) => {
                match recurs_cli::serve_listen_on_source(
                    &source,
                    opts,
                    addr,
                    config.clone(),
                    token,
                    std::io::stdout(),
                ) {
                    Ok(report) => {
                        if report.forced {
                            // The drain deadline expired; in-flight work was
                            // hard-cancelled (truncated, sound replies).
                            std::process::exit(2);
                        }
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    }
                }
            }
            None => {
                let stdin = std::io::stdin();
                let stdout = std::io::stdout();
                let drain = std::time::Duration::from_secs(5);
                if let Err(e) = recurs_cli::serve_stdin_drained(
                    &source,
                    opts,
                    token,
                    drain,
                    stdin.lock(),
                    stdout.lock(),
                ) {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }
    // Governed evaluations stop at the token and report a truncated run;
    // everything else (classify, plan, figure) keeps the default
    // disposition, so Ctrl-C kills it.
    let governed = matches!(cmd, Command::Run { .. } | Command::Batch { .. });
    let token = governed.then(|| {
        let token = CancelToken::new();
        recurs_cli::signals::install(token.clone());
        token
    });
    match execute(&cmd, &source, token) {
        Ok(out) => {
            print!("{}", out.text);
            if !out.outcome.is_complete() {
                std::process::exit(2);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
