//! Standard output for the command-line tools that may be piped into a
//! reader that stops early (`servectl metrics | head`).
//!
//! `println!` panics when the reader has gone ("failed printing to
//! stdout: Broken pipe"). [`outln!`](crate::outln) and
//! [`out!`](crate::out) write the same text, but a closed pipe ends the
//! process quietly with status 0: the reader has all it asked for. Any
//! other write error still panics.

use std::fmt;
use std::io::{self, Write};

/// Writes `args` to stdout; see the module docs for closed pipes.
pub fn write(args: fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().lock().write_fmt(args) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `print!` that exits cleanly on a closed pipe.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::out::write(format_args!($($arg)*))
    };
}

/// `println!` that exits cleanly on a closed pipe.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::out::write(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::out::write(format_args!("{}\n", format_args!($($arg)*)))
    };
}
