// Fixture (negative control): a project method that happens to be
// named atoi, called through an object or a qualifier, and declared,
// is not the libc conversion — the rule must stay silent here.
struct Flags
{
    int atoi(const char *text) const;
};

int
Flags::atoi(const char *text) const
{
    return text[0] == '1' ? 1 : 0;
}

int
readFlag(const Flags &flags)
{
    return flags.atoi("1") + Flags().atoi("0");
}
