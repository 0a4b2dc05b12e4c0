"""One module per workload: setup(seed), prepare(op), run(op, args),
check(op, answer, memo) and CERTIFICATE_ERRORS, the exceptions by which the
program reports that its own certificate of an answer failed."""
