"""Run one ``relscale`` command in this process with span tracing.

Usage: python -X importtime bench/launch.py SPANS_OUT.json ARGS...

Records the import of ``relscale.cli`` and the command itself as spans,
writes them to SPANS_OUT.json and exits with the command's exit code.
The caller sets PYTHONPATH so that ``relscale`` is importable.
"""

import json
import sys
from dataclasses import asdict

import spans


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.active = True
    index = tracer.begin("import.relscale_cli")
    import relscale.cli

    tracer.end(index)
    spans.install(tracer)
    code = 0
    index = tracer.begin("cli.invoke", **spans.command_attrs(args))
    try:
        relscale.cli.main.main(args=args, prog_name="relscale")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.end(index)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in tracer.spans], fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
