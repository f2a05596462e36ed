# Developer entry points for the pcaps reproduction.

GO ?= go

.PHONY: build test vet lint bench loc clean

build:
	$(GO) build ./...

test:
	$(GO) build ./... && $(GO) test ./...

# lint runs pcapslint, the custom analyzer suite (internal/lint): the
# determinism, hot-path, and API-error contracts of DESIGN.md §8. It
# exits non-zero on any finding and inventories every waiver.
lint:
	$(GO) run ./cmd/pcapslint ./...

# vet is the full static gate: stock go vet plus pcapslint.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/pcapslint ./...

# bench runs the full artifact benchmark harness plus the scheduling-loop
# and federation microbenchmarks (root bench_test.go) and records the
# machine-readable event stream as $(BENCH_OUT), extending the
# performance trajectory started in BENCH_1.json (BENCH_<n>.json per PR
# that touches the hot path). Human-readable output goes to the terminal
# via the test summary inside the JSON events. BENCH_OUT defaults to the
# first unused BENCH_<n>.json so a rerun never clobbers an earlier
# trajectory point; override it explicitly to rewrite one.
BENCH_OUT ?= $(shell n=1; while [ -e BENCH_$$n.json ]; do n=$$((n+1)); done; echo BENCH_$$n.json)

bench:
	$(GO) test -run='^$$' -bench=. -benchmem -json . > $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT) ($$(wc -l < $(BENCH_OUT)) events)"

# loc prints the net non-test Go line count, the code-size figure
# reported next to every BENCH result (ROADMAP aim 2): every .go file
# except tests, testdata/ fixtures and the benchmark's .bench_build/.
loc:
	@find . \( -name .git -o -name testdata -o -name .bench_build \) -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l

clean:
	rm -f $(BENCH_OUT)
