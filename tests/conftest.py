from hypothesis import settings

# a deeper property run for CI: python -m pytest tests/test_properties.py
# --hypothesis-profile=ci; the default profile keeps tier-1 fast
settings.register_profile("ci", max_examples=1000, deadline=None)
