import hashlib
import json
import types

import pytest

from cyclo4 import cli
from cyclo4.cli import CSV_HEADER, main
from cyclo4.sequence import generate_sequence

# sha256 of `sweep --from 3 --to 2000 --format json` with every
# elapsed_ms dropped, computed when each period was still filled from the
# class sets
_SWEEP_DIGEST_3_TO_2000 = "7e95e958a5ed8d158a2ab256321e96f5ab21fc95645c1f368024f8a6f2ed96ef"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClasses:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "classes", "--p", "5", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["D0"] == [1, 9] and obj["g"] == 3

    def test_rejects_composite(self, capsys):
        code, _, err = run(capsys, "classes", "--p", "4")
        assert code == 1 and "odd prime" in err

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "classes", "--p", "3")
        assert code == 0
        assert "D1 = [5]" in out

    def test_json_round_trips_bytewise(self, capsys):
        code, out, _ = run(capsys, "classes", "--p", "7", "--format", "json")
        assert code == 0
        redumped = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"
        assert redumped == out


class TestSeq:
    def test_digit_line(self, capsys):
        code, out, _ = run(capsys, "seq", "--p", "3")
        assert code == 0 and out == "002231\n"

    def test_p5(self, capsys):
        _, out, _ = run(capsys, "seq", "--p", "5")
        assert out == "0021323120\n"

    def test_json_array(self, capsys):
        code, out, _ = run(capsys, "seq", "--p", "7", "--format", "json")
        assert code == 0
        assert json.loads(out) == [0, 0, 2, 1, 2, 1, 3, 2, 2, 0, 3, 0, 3, 1]


class TestLc:
    def test_theorem_method(self, capsys):
        code, out, _ = run(capsys, "lc", "--p", "41", "--method", "theorem")
        assert code == 0 and "lc = 22" in out

    def test_brute_with_witness(self, capsys):
        code, out, _ = run(capsys, "lc", "--p", "3", "--method", "brute", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["lc"] == 5
        assert obj["connection"][0] == 1 and len(obj["connection"]) == 6

    def test_reeds_sloane_p31(self, capsys):
        code, out, _ = run(capsys, "lc", "--p", "31", "--method", "reeds-sloane")
        assert code == 0 and "lc = 31" in out

    def test_rejects_p_beyond_proven_primality(self, capsys):
        # 2**89 - 1 is prime, but the Miller-Rabin bases prove primality
        # only below about 3.3 * 10**24
        code, _, err = run(capsys, "lc", "--p", str(2**89 - 1), "--method", "theorem")
        assert code == 1 and "proven only below" in err

    def test_brute_refuses_large_p(self, capsys):
        code, _, err = run(capsys, "lc", "--p", "11", "--method", "brute")
        assert code == 1 and "--force" in err

    def test_force_flag_accepted(self, capsys):
        code, out, _ = run(capsys, "lc", "--p", "7", "--method", "brute", "--force")
        assert code == 0 and "lc = 4" in out


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--p", "7")
        assert code == 0
        assert "FAIL" not in out
        assert "theorem PASS" in out

    def test_filtered_two_lines(self, capsys):
        code, out, _ = run(capsys, "verify", "--p", "7", "--lemmas", "6,7")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("lemma6 PASS")
        assert lines[1].startswith("lemma7 PASS")

    def test_rejects_unknown_lemma(self, capsys):
        code, _, err = run(capsys, "verify", "--p", "7", "--lemmas", "12")
        assert code == 1 and "unknown check" in err

    def test_rejects_p2(self, capsys):
        code, _, err = run(capsys, "verify", "--p", "2")
        assert code == 1

    def test_rejects_a_composite_when_no_check_needs_the_ring(self, capsys):
        code, out, err = run(capsys, "verify", "--p", "9", "--lemmas", "5")
        assert code == 1 and out == "" and "odd prime" in err

    def test_skip_reported_for_pm3(self, capsys):
        code, out, _ = run(capsys, "verify", "--p", "5", "--lemmas", "9")
        assert code == 0
        assert out.startswith("lemma9 SKIP")

    def test_expansion_cap_env(self, capsys, monkeypatch):
        # the cap is a constant: the former override variable is ignored
        monkeypatch.delenv("CYCLO4_EXPANSION_CAP", raising=False)
        unset = run(capsys, "verify", "--p", "5")
        assert unset[0] == 0 and "factorization PASS" in unset[1]
        for raw in ("3", "not-a-number"):
            monkeypatch.setenv("CYCLO4_EXPANSION_CAP", raw)
            assert run(capsys, "verify", "--p", "5") == unset

    @pytest.mark.parametrize("lemmas", ["--lemmas=", "--lemmas=,"])
    def test_rejects_empty_lemma_filter(self, capsys, lemmas):
        code, out, err = run(capsys, "verify", "--p", "7", lemmas)
        assert code == 1 and out == "" and "unknown check ''" in err


class TestSweep:
    def test_csv_shape(self, capsys):
        code, out, err = run(capsys, "sweep", "--from", "3", "--to", "50")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 14  # fourteen odd primes in [3, 50]
        assert "14 primes, 0 mismatches" in err

    def test_record_for_p17(self, capsys):
        _, out, _ = run(capsys, "sweep", "--from", "17", "--to", "17")
        row = out.strip().splitlines()[1].split(",")
        assert row[0] == "17"
        assert row[1] == "1 mod 16"
        assert row[3] == "18" and row[4] == "18" and row[5] == "true"

    def test_reversed_range_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "--from", "10", "--to", "3")
        assert code == 1

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "sweep", "--from", "3", "--to", "20", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"] == {"primes": 7, "mismatches": 0}
        assert all(rec["match"] for rec in doc["records"])
        redumped = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert redumped == out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "--from", "3", "--to", "10", "--out", str(target))
        assert code == 0 and out == ""
        content = target.read_text().splitlines()
        assert content[0] == CSV_HEADER and len(content) == 4

    def test_repeat_runs_agree_except_elapsed_ms(self, capsys, tmp_path):
        tables = []
        for name in ("a.csv", "b.csv"):
            target = tmp_path / name
            assert main(["sweep", "--from", "3", "--to", "61", "--out", str(target)]) == 0
            lines = target.read_text().splitlines()
            assert lines[0].endswith(",elapsed_ms")
            tables.append([line.rsplit(",", 1)[0] for line in lines])
        capsys.readouterr()
        assert tables[0] == tables[1] and len(tables[0]) == 1 + 17

    def test_elapsed_ms_times_the_synthesis_alone(self, capsys, monkeypatch):
        # on a clock that only sequence generation advances, the column reads 0
        now = [0.0]

        def generate(p):
            now[0] += 5.0
            return generate_sequence(p)

        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(cli, "generate_sequence", generate)
        _, out, _ = run(capsys, "sweep", "--from", "3", "--to", "7")
        assert [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]] == ["0", "0", "0"]
        assert now[0] == 15.0

    def test_unwritable_output(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--from", "3", "--to", "10",
                           "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 1

    @pytest.mark.slow
    def test_json_to_2000_pinned(self, capsys):
        code, out, _ = run(capsys, "sweep", "--from", "3", "--to", "2000", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        for rec in doc["records"]:
            del rec["elapsed_ms"]
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == _SWEEP_DIGEST_3_TO_2000


class TestExitCodes:
    def test_verification_failure_maps_to_exit_2(self, capsys, monkeypatch):
        import cyclo4.cli as cli
        from cyclo4.verify import CheckResult, CheckStatus, LemmaReport

        def fake_report(p, only=None):
            return LemmaReport(
                p=p, checks=(CheckResult("lemma6", CheckStatus.FAIL, "forced"),)
            )

        monkeypatch.setattr(cli, "full_report", fake_report)
        code, out, _ = run(capsys, "verify", "--p", "7")
        assert code == 2 and "lemma6 FAIL" in out

    def test_unexpected_error_maps_to_exit_3(self, capsys, monkeypatch):
        import cyclo4.cli as cli

        def boom(p, only=None):
            raise RuntimeError("internal: synthetic")

        monkeypatch.setattr(cli, "full_report", boom)
        code, _, err = run(capsys, "verify", "--p", "7")
        assert code == 3 and "internal error" in err

    def test_usage_errors_map_to_exit_1(self, capsys):
        assert main(["lc", "--p", "abc"]) == 1
        assert main(["nonsense"]) == 1
        assert main(["--help"]) == 0
        capsys.readouterr()
