"""Command-line option parsing."""

import pathlib
import re

import pytest

import repro
from repro.core.options import default_options, make_parser, parse_options


class TestParseOptions:
    def test_defaults(self):
        opts, args = parse_options(None, [])
        assert opts.mrs_impl == "serial"
        assert opts.seed == 0
        assert opts.data_plane == "file"
        assert args == []

    def test_implementation_case_insensitive(self):
        opts, _ = parse_options(None, ["--mrs", "MockParallel"])
        assert opts.mrs_impl == "mockparallel"

    def test_unknown_implementation_rejected(self):
        with pytest.raises(SystemExit):
            parse_options(None, ["--mrs", "quantum"])

    def test_positional_args_pass_through(self):
        _, args = parse_options(None, ["in.txt", "out"])
        assert args == ["in.txt", "out"]

    def test_stray_flags_rejected(self):
        with pytest.raises(SystemExit):
            parse_options(None, ["--not-a-real-flag"])

    def test_master_slave_options(self):
        opts, _ = parse_options(
            None,
            ["--mrs", "slave", "--mrs-master", "10.0.0.1:4000"],
        )
        assert opts.master == "10.0.0.1:4000"

    def test_numeric_options(self):
        opts, _ = parse_options(
            None, ["--mrs-seed", "99", "--mrs-reduce-tasks", "7"]
        )
        assert opts.seed == 99
        assert opts.reduce_tasks == 7

    def test_data_plane_choices(self):
        opts, _ = parse_options(None, ["--mrs-data-plane", "http"])
        assert opts.data_plane == "http"
        with pytest.raises(SystemExit):
            parse_options(None, ["--mrs-data-plane", "carrier-pigeon"])


class TestProgramOptions:
    def test_program_parser_hook(self):
        class Prog:
            @classmethod
            def update_parser(cls, parser):
                parser.add_argument("--flavor", default="plain")
                return parser

        opts, _ = parse_options(Prog, ["--flavor", "spicy"])
        assert opts.flavor == "spicy"

    def test_program_flags_and_mrs_flags_coexist(self):
        class Prog:
            @classmethod
            def update_parser(cls, parser):
                parser.add_argument("--n", type=int, default=1)
                return parser

        opts, args = parse_options(
            Prog, ["--mrs-seed", "3", "--n", "5", "input", "output"]
        )
        assert (opts.seed, opts.n) == (3, 5)
        assert args == ["input", "output"]


class TestDefaultOptions:
    def test_overrides_applied(self):
        opts = default_options(seed=123, custom_thing="x")
        assert opts.seed == 123
        assert opts.custom_thing == "x"

    def test_parser_builds_without_program(self):
        assert make_parser(None) is not None


#: Every framework flag.  A new one must earn its place: two existing
#: non-test callers need different values, or it is a deployment setting
#: (addresses, paths, tokens, process counts); otherwise it is a constant
#: next to the code that uses it (docs/programming-guide.md, section 13).
FRAMEWORK_FLAGS = {
    "--mrs",
    "--mrs-auth-token",
    "--mrs-data-plane",
    "--mrs-debug",
    "--mrs-event-log",
    "--mrs-host",
    "--mrs-master",
    "--mrs-max-concurrent-jobs",
    "--mrs-metrics-json",
    "--mrs-no-affinity",
    "--mrs-port",
    "--mrs-procs",
    "--mrs-profile-tasks",
    "--mrs-progress",
    "--mrs-reduce-tasks",
    "--mrs-register",
    "--mrs-runfile",
    "--mrs-seed",
    "--mrs-slave-wait-timeout",
    "--mrs-status-http",
    "--mrs-timeout",
    "--mrs-tmpdir",
    "--mrs-verbose",
    "--mrs-zero-copy",
}

#: Flags that were options once and are constants now.
REMOVED_FLAGS = [
    "--mrs-fetch-threads",
    "--mrs-fetch-buffer-mb",
    "--mrs-fetch-timeout",
    "--mrs-fetch-retries",
    "--mrs-fetch-compression",
    "--mrs-telemetry",
    "--mrs-telemetry-interval",
    "--mrs-straggler-factor",
    "--mrs-heartbeat-interval",
    "--mrs-profile",
    "--mrs-native",
    "--mrs-pipeline",
    "--mrs-trace",
    "--mrs-start-method",
]

#: Every environment variable the framework reads or writes.
FRAMEWORK_ENVIRONMENT = {
    "MRS_ZERO_COPY",
    "MRS_SLAVE_WAIT_TIMEOUT",
    "MRS_AUTH_TOKEN",
    "MRS_SERVER",
}


def framework_actions():
    (group,) = [
        g for g in make_parser()._action_groups if g.title == "Mrs options"
    ]
    return group._group_actions


def framework_source(exclude=()):
    root = pathlib.Path(repro.__file__).parent
    return "\n".join(
        path.read_text()
        for path in sorted(root.rglob("*.py"))
        if path.relative_to(root).as_posix() not in exclude
    )


class TestOptionCensus:
    """Knobs do not creep back: the flag list and the environment
    variable list are literal, and an option nobody reads fails."""

    def test_flags_are_exactly_these(self):
        flags = {
            flag
            for action in framework_actions()
            for flag in action.option_strings
            if flag.startswith("--")
        }
        assert flags == FRAMEWORK_FLAGS
        assert len(flags) == 24

    def test_every_option_is_read_outside_the_parser(self):
        source = framework_source(exclude=("core/options.py",))
        unread = [
            action.dest
            for action in framework_actions()
            if not re.search(
                rf"opts\.{action.dest}\b"
                rf"|getattr\(\s*[\w.]*opts[\w.]*,\s*[\"']{action.dest}[\"']",
                source,
            )
        ]
        assert unread == []

    def test_environment_variables_are_exactly_these(self):
        names = set(
            re.findall(
                r"os\.environ(?:\.get\(|\[)\s*[\"'](MRS_[A-Z_]+)[\"']",
                framework_source(),
            )
        )
        assert names == FRAMEWORK_ENVIRONMENT

    def test_observability_records_in_exactly_these_places(self):
        """A task's time lives in its span; the registry holds bounded
        aggregates; the event log is optional.  Telemetry keeps nothing
        here: it is a view over the coordinator.  An eighth timing store
        would show up here as a new member."""
        from repro.observability import Observability

        descriptive = {"role", "startup_seconds", "startup_kind"}
        members = {
            name
            for name in vars(Observability())
            if not name.startswith("_") and name not in descriptive
        }
        assert members == {"registry", "tracer", "events"}

    @pytest.mark.parametrize("flag", REMOVED_FLAGS)
    def test_removed_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            parse_options(None, [flag, "1"])
        assert exit_info.value.code == 2
        assert f"unrecognized options: {flag}" in capsys.readouterr().err
