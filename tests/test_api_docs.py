"""``docs/API.md`` must match what ``scripts/generate_api_docs.py`` renders."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_committed_api_reference_is_current():
    spec = importlib.util.spec_from_file_location(
        "generate_api_docs", ROOT / "scripts" / "generate_api_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    committed = (ROOT / "docs" / "API.md").read_text()
    assert module.render() == committed, (
        "docs/API.md is stale: run `PYTHONPATH=src python "
        "scripts/generate_api_docs.py` and commit the result"
    )
