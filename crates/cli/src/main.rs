//! `spb-cli` — build and query SPB-tree metric indexes from the shell.
//!
//! ```text
//! spb-cli build --input words.txt --index ./idx --schema words
//! spb-cli knn   --index ./idx --query similarty --k 5
//! spb-cli range --index ./idx --query similarty --radius 2
//! spb-cli count --index ./idx --query similarty --radius 2
//! spb-cli stats --index ./idx
//! spb-cli serve --index ./idx --addr 127.0.0.1:7878
//! spb-cli range --addr 127.0.0.1:7878 --query similarty --radius 2
//! ```
//!
//! Failures exit with distinct codes so scripts can react:
//! 10 = could not connect, 11 = server overloaded (back off and retry),
//! 12 = deadline exceeded, 13 = protocol version mismatch.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match spb_cli::parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{}", spb_cli::usage());
            std::process::exit(spb_cli::EXIT_USAGE);
        }
    };
    let mut out = String::new();
    match spb_cli::run(&cmd, &mut out) {
        Ok(()) => print!("{out}"),
        Err(e) => {
            print!("{out}");
            eprintln!("error: {}", e.message);
            std::process::exit(e.code);
        }
    }
}
