//! Command lines: each bin declares its flags once, in a `const` [`Spec`],
//! and this module parses argv against that table and renders `--help`
//! from the same table.
//!
//! The contract every bin follows (DESIGN §8, "Command lines"):
//!
//! * `-h`/`--help` prints the help on stdout and exits 0;
//! * every usage error — an unknown flag, a missing value, a value that
//!   does not parse into its field's type, a command's flag given before
//!   the command, an extra positional, or a check the bin makes after
//!   parsing ([`Args::fail`]) — logs one `invalid arguments` error event
//!   (target: the bin name with `-` as `_`), prints the help on stderr and
//!   exits 2;
//! * a value flag takes `--flag value` or `--flag=value`; integers parse
//!   into the field's own width, in decimal or `0x` hex, and overflow is
//!   an error; a `Vec<T>` value is a comma list and an `(A, B)` value an
//!   `A:B` pair, and a repeated flag's values keep their order.

use crate::log::{self, Level};
use std::fmt::{Display, Write as _};
use std::io::Write as _;

/// One flag: `--long`, an optional `-s` alias, and a metavar when it takes
/// a value (a flag without one is a switch).
#[derive(Debug)]
pub struct Flag {
    long: &'static str,
    short: Option<&'static str>,
    metavar: Option<&'static str>,
    repeat: bool,
    help: &'static str,
}

impl Flag {
    /// A switch: given or not, no value.
    pub const fn switch(long: &'static str, help: &'static str) -> Flag {
        Flag {
            long,
            short: None,
            metavar: None,
            repeat: false,
            help,
        }
    }

    /// A flag taking one value, shown as `metavar` in the help.
    pub const fn value(long: &'static str, metavar: &'static str, help: &'static str) -> Flag {
        let mut flag = Flag::switch(long, help);
        flag.metavar = Some(metavar);
        flag
    }

    /// The flag may be given more than once ([`Args::values`]).
    pub const fn repeated(mut self) -> Flag {
        self.repeat = true;
        self
    }

    /// The flag also answers to `-s`.
    pub const fn short(mut self, s: &'static str) -> Flag {
        self.short = Some(s);
        self
    }
}

/// A positional argument.
#[derive(Debug)]
pub struct Arg {
    name: &'static str,
    required: bool,
    help: &'static str,
}

impl Arg {
    /// A positional that must be given.
    pub const fn required(name: &'static str, help: &'static str) -> Arg {
        Arg {
            name,
            required: true,
            help,
        }
    }

    /// A positional that may be left out.
    pub const fn optional(name: &'static str, help: &'static str) -> Arg {
        let mut arg = Arg::required(name, help);
        arg.required = false;
        arg
    }
}

/// A bin's command line, or one of its subcommands.
#[derive(Debug)]
pub struct Spec {
    /// The bin name; for a subcommand, its command word.
    pub name: &'static str,
    /// What it does, in one line.
    pub about: &'static str,
    /// Flags; a subcommand's are accepted only after the subcommand.
    pub flags: &'static [Flag],
    /// Positionals, in order (with subcommands, theirs instead).
    pub args: &'static [Arg],
    /// Subcommands, one level deep; when there are any, one must be given.
    pub commands: &'static [Spec],
    /// Text appended to the help.
    pub notes: &'static str,
}

impl Spec {
    /// The empty spec, to complete a table with `..Spec::NONE`.
    pub const NONE: Spec = Spec {
        name: "",
        about: "",
        flags: &[],
        args: &[],
        commands: &[],
        notes: "",
    };

    /// The help text, rendered from the table.
    fn help(&self) -> String {
        let mut options = self.rows();
        options.push(("-h, --help".to_string(), "print this help"));
        let list = self
            .commands
            .iter()
            .map(|c| (format!("{}{}", c.name, c.synopsis()), c.about));
        let mut sections = vec![
            ("OPTIONS".to_string(), options),
            ("COMMANDS".to_string(), list.collect()),
        ];
        for c in self.commands {
            sections.push((format!("{} OPTIONS", c.name.to_uppercase()), c.rows()));
        }
        sections.retain(|(_, rows)| !rows.is_empty());
        let lefts = sections
            .iter()
            .flat_map(|(_, rows)| rows.iter().map(|(l, _)| l.chars().count()));
        let width = lefts.max().unwrap_or(0) + 3;
        let mut out = format!("{} -- {}\n\nUSAGE:\n", self.name, self.about);
        let _ = writeln!(out, "    {} [OPTIONS]{}", self.name, self.synopsis());
        for (head, rows) in sections {
            let _ = writeln!(out, "\n{head}:");
            for (left, help) in rows {
                let _ = writeln!(out, "    {left:<width$}{help}");
            }
        }
        if !self.notes.is_empty() {
            let _ = write!(out, "\n{}", self.notes);
        }
        out
    }

    /// ` <COMMAND>` when there are subcommands, then the positionals.
    fn synopsis(&self) -> String {
        let command = (!self.commands.is_empty()).then_some(" <COMMAND>".to_string());
        let args = self.args.iter().map(|a| match a.required {
            true => format!(" {}", a.name),
            false => format!(" [{}]", a.name),
        });
        command.into_iter().chain(args).collect()
    }

    fn rows(&self) -> Vec<(String, &'static str)> {
        let args = self.args.iter().map(|a| (a.name.to_string(), a.help));
        let flags = self.flags.iter().map(|f| {
            let short = f.short.map_or(String::new(), |s| format!("-{s}, "));
            let dots = if f.repeat { "..." } else { "" };
            let meta = f.metavar.map_or(String::new(), |m| format!(" {m}{dots}"));
            (format!("{short}--{}{meta}", f.long), f.help)
        });
        args.chain(flags).collect()
    }
}

/// A type a flag value or positional parses into.
pub trait FromArg: Sized {
    /// Parse `s`, or say why it is not a `Self`.
    fn from_arg(s: &str) -> Result<Self, String>;
}

impl FromArg for String {
    fn from_arg(s: &str) -> Result<String, String> {
        Ok(s.to_string())
    }
}

impl FromArg for f64 {
    fn from_arg(s: &str) -> Result<f64, String> {
        s.parse().map_err(|_| format!("`{s}` is not a number"))
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl FromArg for $t {
            fn from_arg(s: &str) -> Result<$t, String> {
                match s.strip_prefix("0x") {
                    Some(hex) => <$t>::from_str_radix(hex, 16),
                    None => s.parse(),
                }
                .map_err(|e| format!("`{s}` is not a {} ({e})", stringify!($t)))
            }
        }
    )*};
}
unsigned!(u32, u64, usize);

/// A comma-separated list, in order.
impl<T: FromArg> FromArg for Vec<T> {
    fn from_arg(s: &str) -> Result<Vec<T>, String> {
        s.split(',').map(|item| T::from_arg(item.trim())).collect()
    }
}

/// An `A:B` pair, split at the first colon.
impl<A: FromArg, B: FromArg> FromArg for (A, B) {
    fn from_arg(s: &str) -> Result<(A, B), String> {
        let (a, b) = s
            .split_once(':')
            .ok_or_else(|| format!("`{s}` is not of the form A:B"))?;
        Ok((A::from_arg(a)?, B::from_arg(b)?))
    }
}

/// A command line parsed against its [`Spec`].
#[derive(Debug)]
pub struct Args {
    spec: &'static Spec,
    command: Option<&'static Spec>,
    /// `(flag, value)` in command-line order; a switch's value is empty.
    values: Vec<(&'static str, String)>,
    positionals: Vec<String>,
}

impl Args {
    /// Apply `HOPPER_LOG`, then parse the process's arguments against
    /// `spec`; help and usage errors end the process here.
    pub fn from_env(spec: &'static Spec) -> Args {
        log::init_from_env();
        let argv = std::env::args_os().skip(1).map(|a| a.into_string());
        let argv: Result<Vec<String>, _> = argv.collect();
        let argv = argv.map_err(|bad| format!("{bad:?} is not valid UTF-8"));
        match argv.and_then(|argv| Args::parse(spec, argv)) {
            Ok(Some(args)) => args,
            Ok(None) => {
                // A closed pipe (`--help | head -1`) is not worth a panic.
                let _ = std::io::stdout().write_all(spec.help().as_bytes());
                std::process::exit(0)
            }
            Err(detail) => usage_error(spec, &detail),
        }
    }

    /// Parse `argv` (without the program name): `None` when it asks for help.
    fn parse(spec: &'static Spec, argv: Vec<String>) -> Result<Option<Args>, String> {
        let mut args = Args {
            spec,
            command: None,
            values: Vec::new(),
            positionals: Vec::new(),
        };
        let mut argv = argv.into_iter();
        while let Some(tok) = argv.next() {
            if tok == "-h" || tok == "--help" {
                return Ok(None);
            }
            let (flag, inline) = if let Some(rest) = tok.strip_prefix("--") {
                let (name, inline) = rest
                    .split_once('=')
                    .map_or((rest, None), |(n, v)| (n, Some(v)));
                (args.flag(|f| f.long == name), inline)
            } else if let Some(s) = tok.strip_prefix('-').filter(|s| !s.is_empty()) {
                (args.flag(|f| f.short == Some(s)), None)
            } else {
                args.positional(tok)?;
                continue;
            };
            let flag = flag.ok_or_else(|| args.unknown(&tok))?;
            let value = match (flag.metavar, inline) {
                (None, None) => String::new(),
                (None, Some(_)) => return Err(format!("--{} takes no value", flag.long)),
                (Some(_), Some(v)) => v.to_string(),
                (Some(m), None) => argv
                    .next()
                    .ok_or(format!("--{} needs a value {m}", flag.long))?,
            };
            if !flag.repeat && args.values.iter().any(|(long, _)| *long == flag.long) {
                return Err(format!("--{} given twice", flag.long));
            }
            args.values.push((flag.long, value));
        }
        if args.command.is_none() && !spec.commands.is_empty() {
            let names: Vec<&str> = spec.commands.iter().map(|c| c.name).collect();
            return Err(format!("missing command ({})", names.join("|")));
        }
        let mut unfilled = args.scope().args.iter().skip(args.positionals.len());
        match unfilled.find(|a| a.required) {
            Some(missing) => Err(format!("missing {}", missing.name)),
            None => Ok(Some(args)),
        }
    }

    /// The subcommand given, if the spec has any.
    pub fn command(&self) -> Option<&'static str> {
        self.command.map(|c| c.name)
    }

    /// Positional `name`, if given.
    pub fn arg(&self, name: &str) -> Option<&str> {
        let at = self.scope().args.iter().position(|a| a.name == name);
        debug_assert!(at.is_some(), "`{name}` is not a positional of the spec");
        self.positionals.get(at?).map(String::as_str)
    }

    /// Was switch `long` given?
    pub fn switch(&self, long: &str) -> bool {
        !self.values::<String>(long).is_empty()
    }

    /// Flag `long`'s value as a `T`, if given.
    pub fn value<T: FromArg>(&self, long: &str) -> Option<T> {
        self.values(long).pop()
    }

    /// Every value of flag `long` as a `T`, in order. A value that does not
    /// parse is a usage error.
    pub fn values<T: FromArg>(&self, long: &str) -> Vec<T> {
        self.try_values(long).unwrap_or_else(|e| self.fail(e))
    }

    /// Report a usage error the bin found after parsing: one `invalid
    /// arguments` error event, the help on stderr, exit code 2.
    pub fn fail(&self, detail: impl Display) -> ! {
        usage_error(self.spec, &detail.to_string())
    }

    fn try_values<T: FromArg>(&self, long: &str) -> Result<Vec<T>, String> {
        debug_assert!(self.flag(|f| f.long == long).is_some(), "no --{long}");
        let given = self.values.iter().filter(|(l, _)| *l == long);
        given
            .map(|(_, v)| T::from_arg(v).map_err(|e| format!("--{long}: {e}")))
            .collect()
    }

    /// The innermost spec in force: the subcommand once given.
    fn scope(&self) -> &'static Spec {
        self.command.unwrap_or(self.spec)
    }

    fn flag(&self, is: impl Fn(&Flag) -> bool) -> Option<&'static Flag> {
        let command = self.command.map_or(&[][..], |c| c.flags);
        self.spec.flags.iter().chain(command).find(|f| is(f))
    }

    fn positional(&mut self, tok: String) -> Result<(), String> {
        if self.command.is_none() && !self.spec.commands.is_empty() {
            let command = self.spec.commands.iter().find(|c| c.name == tok);
            self.command = Some(command.ok_or(format!("unknown command `{tok}`"))?);
        } else if self.positionals.len() < self.scope().args.len() {
            self.positionals.push(tok);
        } else {
            return Err(format!("unexpected argument `{tok}`"));
        }
        Ok(())
    }

    /// An unknown flag, or a subcommand's flag given before the subcommand.
    fn unknown(&self, tok: &str) -> String {
        let name = tok.trim_start_matches('-');
        let name = name.split_once('=').map_or(name, |(n, _)| n);
        let named = |f: &Flag| f.long == name || f.short == Some(name);
        let mut commands = self.spec.commands.iter();
        match commands.find(|c| c.flags.iter().any(named)) {
            Some(c) => format!("`{tok}` is a `{0}` option: give it after `{0}`", c.name),
            None => format!("unknown flag `{tok}`"),
        }
    }
}

/// The text of file `path`, or of stdin when `path` is `-`.
pub fn read_input(path: &str) -> Result<String, String> {
    let read = match path {
        "-" => std::io::read_to_string(std::io::stdin()),
        _ => std::fs::read_to_string(path),
    };
    read.map_err(|e| format!("reading {path}: {e}"))
}

fn usage_error(spec: &Spec, detail: &str) -> ! {
    let target = spec.name.replace('-', "_");
    log::event(Level::Error, &target, "invalid arguments")
        .str("detail", detail)
        .emit();
    let _ = std::io::stderr().write_all(spec.help().as_bytes());
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every kind of table entry: switch, value, repeated value, short
    /// alias, positionals, and a subcommand with flags of its own.
    const SPEC: Spec = Spec {
        name: "demo-bin",
        about: "exercise every flag kind",
        flags: &[
            Flag::value("addr", "HOST:PORT", "address"),
            Flag::switch("pretty", "pretty-print"),
            Flag::value("jobs", "N", "threads").short("j"),
        ],
        commands: &[
            Spec {
                name: "ping",
                about: "no options",
                ..Spec::NONE
            },
            Spec {
                name: "run",
                about: "options and positionals",
                args: &[
                    Arg::required("FILE", "input"),
                    Arg::optional("MORE", "extra"),
                ],
                flags: &[
                    Flag::value("grid", "N", "blocks"),
                    Flag::value("seed", "S", "seed"),
                    Flag::value("param", "V", "parameter").repeated(),
                    Flag::value("qps", "LIST", "rates"),
                    Flag::value("fill", "N:V,..", "fill").repeated(),
                    Flag::switch("json", "JSON output"),
                ],
                ..Spec::NONE
            },
        ],
        notes: "notes\n",
        ..Spec::NONE
    };

    fn parse(line: &str) -> Args {
        let args = Args::parse(&SPEC, line.split_whitespace().map(String::from).collect());
        args.unwrap().expect("not a help request")
    }

    fn usage_error(line: &str) -> String {
        let args = Args::parse(&SPEC, line.split_whitespace().map(String::from).collect());
        args.expect_err(line)
    }

    #[test]
    fn equals_form_and_separate_value_agree() {
        for line in ["run f --grid 4 --addr x:1", "run f --grid=4 --addr=x:1"] {
            let args = parse(line);
            assert_eq!(args.value::<u32>("grid"), Some(4), "{line}");
            assert_eq!(args.value::<String>("addr").as_deref(), Some("x:1"));
        }
        let args = parse("run f --seed=a=b");
        assert_eq!(args.value::<String>("seed").as_deref(), Some("a=b"));
        assert!(usage_error("run f --json=1").contains("takes no value"));
        assert!(usage_error("run f --grid").contains("needs a value N"));
        assert!(usage_error("-j").contains("needs a value"));
    }

    #[test]
    fn integers_take_hex_and_refuse_overflow_per_width() {
        assert_eq!(u32::from_arg("0x10"), Ok(16));
        assert_eq!(u64::from_arg("0xffffffffffffffff"), Ok(u64::MAX));
        assert_eq!(usize::from_arg("0x0"), Ok(0));
        assert_eq!(u32::from_arg("4294967295"), Ok(u32::MAX));
        let too_big = [
            u32::from_arg("4294967296").err(),
            u32::from_arg("0x100000000").err(),
            u64::from_arg("18446744073709551616").err(),
            usize::from_arg(&(usize::MAX as u128 + 1).to_string()).err(),
        ];
        for e in too_big {
            assert!(e.is_some_and(|e| e.contains("too large")));
        }
        for bad in ["", "0x", "-1", "1.5", "0xg", "ten"] {
            assert!(u64::from_arg(bad).is_err(), "{bad:?}");
        }
        assert_eq!(f64::from_arg("1e3"), Ok(1000.0));
        assert!(f64::from_arg("fast").is_err());
    }

    #[test]
    fn repeated_flags_and_lists_keep_their_order() {
        let args =
            parse("run f --param 3 --param 0x1 --param 2 --qps 5,0.5,1 --fill 1:9,8 --fill 0:7");
        assert_eq!(args.values::<u64>("param"), [3, 1, 2]);
        assert_eq!(args.value::<Vec<f64>>("qps"), Some(vec![5.0, 0.5, 1.0]));
        let fills: Vec<(usize, Vec<u32>)> = args.values("fill");
        assert_eq!(fills, [(1, vec![9, 8]), (0, vec![7])]);
        assert_eq!(args.values::<u64>("grid"), Vec::<u64>::new());
        assert!(usage_error("run f --grid 1 --grid 2").contains("--grid given twice"));
        assert!(usage_error("--pretty --pretty ping").contains("given twice"));
        assert_eq!(<(usize, u32)>::from_arg("1:2"), Ok((1, 2)));
        assert!(<(usize, u32)>::from_arg("12").is_err());
    }

    #[test]
    fn flags_around_a_subcommand() {
        let args = parse("--addr a -j 2 run --pretty f --json g");
        assert_eq!(args.command(), Some("run"));
        assert_eq!((args.arg("FILE"), args.arg("MORE")), (Some("f"), Some("g")));
        assert!(args.switch("pretty") && args.switch("json"));
        assert_eq!(args.value::<usize>("jobs"), Some(2));
        let args = parse("ping --addr b");
        assert_eq!(args.command(), Some("ping"));
        assert_eq!(args.value::<String>("addr").as_deref(), Some("b"));

        assert!(usage_error("--grid 2 run f").contains("is a `run` option: give it after `run`"));
        assert!(usage_error("ping --json").contains("`--json` is a `run` option"));
        assert!(usage_error("run f g h").contains("unexpected argument `h`"));
        assert!(usage_error("ping f").contains("unexpected argument `f`"));
        assert!(usage_error("run --json").contains("missing FILE"));
        assert!(usage_error("--pretty").contains("missing command (ping|run)"));
        assert!(usage_error("walk").contains("unknown command `walk`"));
        assert!(usage_error("ping --bogus").contains("unknown flag `--bogus`"));
        assert!(usage_error("ping -x").contains("unknown flag `-x`"));
        for help in ["run f --help", "-h --bogus"] {
            let args = Args::parse(&SPEC, help.split_whitespace().map(String::from).collect());
            assert!(matches!(args, Ok(None)), "{help}");
        }
        assert_eq!(parse("run - -").arg("MORE"), Some("-"));
    }

    #[test]
    fn help_names_every_entry_of_the_table() {
        let help = SPEC.help();
        assert!(help.starts_with("demo-bin -- exercise every flag kind\n"));
        assert!(help.contains("    demo-bin [OPTIONS] <COMMAND>\n"));
        let rows = [
            "--addr HOST:PORT",
            "--pretty",
            "-j, --jobs N",
            "-h, --help",
            "ping",
            "run FILE [MORE]",
            "RUN OPTIONS:",
            "FILE",
            "--grid N",
            "--param V...",
            "--json",
        ];
        for row in rows {
            assert!(help.contains(row), "{row} missing from\n{help}");
        }
        assert!(help.contains("\nCOMMANDS:\n") && help.ends_with("\nnotes\n"));
        assert!(
            !help.contains("PING OPTIONS"),
            "no section for a command without options"
        );
    }

    /// Tokens that hit every branch of the parser: flags of both scopes in
    /// both forms, shorts, commands, positionals, stdin, junk and non-ASCII.
    const SOUP: &[&str] = &[
        "--addr",
        "--addr=",
        "--pretty",
        "--pretty=x",
        "-j",
        "-jj",
        "--jobs=0x",
        "run",
        "ping",
        "--grid",
        "--grid=4294967296",
        "--seed",
        "--param",
        "--param=0x1",
        "--qps",
        "--fill",
        "--json",
        "--help",
        "-h",
        "-",
        "--",
        "--=",
        "=",
        "",
        "f",
        "1",
        "0x10",
        "1,2",
        "1:2,3",
        ":",
        ",",
        "-1",
        "é",
        "--é=ü",
        "-é",
        "--bogus",
        "18446744073709551616",
        "NaN",
    ];

    /// A token from [`SOUP`], or up to two dashes before arbitrary text.
    fn token() -> impl Strategy<Value = String> {
        let text = proptest::collection::vec(0u32..0x800, 0..6);
        let junk = (0usize..3, text).prop_map(|(dashes, cs)| {
            "-".repeat(dashes)
                + &cs
                    .into_iter()
                    .filter_map(char::from_u32)
                    .collect::<String>()
        });
        prop_oneof![(0..SOUP.len()).prop_map(|i| SOUP[i].to_string()), junk]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        #[test]
        fn token_soup_never_panics(argv in proptest::collection::vec(token(), 0..10)) {
            let Ok(Some(args)) = Args::parse(&SPEC, argv) else { continue };
            let flags = SPEC.flags.iter().chain(args.command.map_or(&[][..], |c| c.flags));
            for f in flags {
                let given = args.try_values::<String>(f.long).unwrap();
                prop_assert!(f.repeat || given.len() <= 1);
                let _ = (args.try_values::<u32>(f.long), args.try_values::<u64>(f.long));
                let _ = (args.try_values::<usize>(f.long), args.try_values::<f64>(f.long));
                let _ = args.try_values::<Vec<u64>>(f.long);
                let _ = args.try_values::<(usize, Vec<u32>)>(f.long);
            }
            for a in args.scope().args {
                prop_assert!(!a.required || args.arg(a.name).is_some());
            }
            let _ = (args.command(), SPEC.help());
        }
    }
}
