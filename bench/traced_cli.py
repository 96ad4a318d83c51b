"""Run the falsify command line with layer spans recorded.

    python3 bench/traced_cli.py SPANS_JSON run --config run.yaml ...

Writes the spans and counters to SPANS_JSON when the command ends, then
exits with the command's code. The benchmark uses it for traced cli_run
repetitions; untraced ones run ``python3 -m falsify.cli`` directly.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import Tracer, install  # noqa: E402

tracer = Tracer()
span = tracer.open("cli.import")
import falsify.cli  # noqa: E402
tracer.close(span)
install(tracer)
code = 0
span = tracer.open("cli.main")
try:
    falsify.cli.main(args=sys.argv[2:], prog_name="falsify", standalone_mode=False)
except SystemExit as exc:
    code = exc.code
finally:
    tracer.close(span)
    Path(sys.argv[1]).write_text(json.dumps(
        {"spans": tracer.to_records(), "counters": dict(tracer.counters)}), encoding="utf-8")
sys.exit(code)
