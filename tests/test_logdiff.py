import subprocess
import sys
from pathlib import Path

LOG = """time_ms,event,flow_id,bytes,detail
0.5,enqueue,0,1400,pkt=1;frame=0
1.0,predict,0,1400,pred_q=200.0;guidance=1000.0
2.0,predict,0,0,pred_q=100.0;guidance=900.0
"""


def test_reports_one_planted_difference(tmp_path):
    for run, log in (("a", LOG), ("b", LOG.replace("=100.0", "=80.0"))):
        (tmp_path / run).mkdir()
        (tmp_path / run / "events.log").write_text(log)
        (tmp_path / run / "frames.csv").write_text("flow_id,frame_id\n0,0\n")
    got = subprocess.run(
        [sys.executable, Path(__file__).parent.parent / "tools" / "logdiff.py",
         tmp_path / "a", tmp_path / "b"], capture_output=True, text=True)
    assert got.returncode == 1
    lines = got.stdout.splitlines()
    assert lines[:2] == ["events.log: differs", "  4 against 4 lines; "
                         "differing lines by event kind:"]
    assert lines[2].split() == ["predict", "1"]
    assert lines[3:6] == ["  first difference, line 4:",
                          "  - 2.0,predict,0,0,pred_q=100.0;guidance=900.0",
                          "  + 2.0,predict,0,0,pred_q=80.0;guidance=900.0"]
    assert dict(line.split() for line in lines[7:-1]) == {
        "bytes": "0", "predict.guidance": "0", "predict.pred_q": "0.2",
        "time_ms": "0"}
    assert lines[-1] == "frames.csv: identical"
