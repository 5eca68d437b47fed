"""No process pool: exists only for perfbench's tracer, which reads _executor; goes with ROADMAP item 2."""

_executor = None
