from hypothesis import settings

# Property tests draw the same examples on every run (derandomize), keep no
# example database, and have no per-example deadline: shared hosts stall
# long enough to trip the default one.
settings.register_profile(
    "invtrack", derandomize=True, database=None, deadline=None, max_examples=60
)
settings.load_profile("invtrack")
