"""Suite-wide settings."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    settings = None

if settings is not None:
    # Property tests draw a fixed, bounded set of examples, so the suite
    # stays deterministic and fast and keeps no example database on disk.
    settings.register_profile(
        "dnscdn", derandomize=True, max_examples=400, deadline=None, database=None, print_blob=False
    )
    settings.load_profile("dnscdn")
