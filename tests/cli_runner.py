"""Run knotmeta.cli.main in process, for tests, with sys.stdout and
sys.stderr replaced by text streams over byte buffers.

`CliRunner().invoke(main, args)` returns a Result with the exit code, the
exception that ended the call (a SystemExit of a nonzero code included), the
bytes and text of each stream, and `output`, both streams merged in the
order their bytes reached the buffers. The streams are block-buffered text
wrappers in `charset`, so `sys.stdout.buffer` works as on a real stdout and
a row reaches the merged output only when it is flushed.
"""

import io
import sys
from typing import NamedTuple


class _Copying(io.BytesIO):
    """A byte buffer that copies every write into `merged` as well."""

    def __init__(self, merged):
        super().__init__()
        self.merged = merged

    def write(self, b):
        self.merged.write(b)
        return super().write(b)


class Result(NamedTuple):
    exit_code: int
    exception: BaseException | None
    stdout_bytes: bytes
    stderr_bytes: bytes
    output_bytes: bytes
    charset: str

    stdout = property(lambda self: self.stdout_bytes.decode(self.charset, "replace"))
    stderr = property(lambda self: self.stderr_bytes.decode(self.charset, "replace"))
    output = property(lambda self: self.output_bytes.decode(self.charset, "replace"))


class CliRunner:
    def __init__(self, charset="utf-8"):
        self.charset = charset

    def invoke(self, main, args):
        merged = io.BytesIO()
        buffers = _Copying(merged), _Copying(merged)
        streams = [io.TextIOWrapper(b, encoding=self.charset) for b in buffers]
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = streams
        code, exception = 0, None
        try:
            main(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            exception = exc if code else None
        except Exception as exc:
            code, exception = 1, exc
        finally:
            for stream in streams:
                stream.flush()
            sys.stdout, sys.stderr = saved
        out, err = (b.getvalue() for b in buffers)
        return Result(code, exception, out, err, merged.getvalue(), self.charset)
