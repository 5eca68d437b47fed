"""No process pool: exists only for perfbench's tracer, which reads _executor; goes with ROADMAP item 3."""

_executor = None
