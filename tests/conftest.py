from hypothesis import settings

# fixed examples keep the tier-1 run reproducible
settings.register_profile("coordproj", deadline=None, derandomize=True, max_examples=150)
settings.load_profile("coordproj")
